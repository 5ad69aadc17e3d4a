//! The static performance estimator (paper §VI-C).
//!
//! The latency of an RNS-CKKS operation is determined by the operation
//! kind, the number of active RNS primes (`chain_len − level`), and the
//! ring degree `N`: linear in the active primes for elementwise work and
//! quadratic for key switching, with an `N log N` factor wherever NTTs are
//! involved. The estimator sums a per-operation cost table over the
//! compiled program; levels come straight from the type system.
//!
//! Two models are provided: an *analytic* model with the asymptotic shape
//! above (deterministic, used during exploration and in tests), and a
//! *profiled* table measured on the actual backend (what the paper does;
//! Fig. 8 shows the two agree within a few percent).

use crate::lowering::Lowering;
use crate::noise::NoiseRule;
use hecate_ir::types::Type;
use hecate_ir::Function;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The backend cost categories an IR operation lowers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CostOp {
    /// Ciphertext + ciphertext.
    AddCC,
    /// Ciphertext + plaintext.
    AddCP,
    /// Ciphertext × ciphertext, including relinearization.
    MulCC,
    /// Ciphertext × plaintext.
    MulCP,
    /// Negation.
    Negate,
    /// Slot rotation (automorphism + key switch).
    Rotate,
    /// A slot rotation that shares a hoisted digit decomposition with
    /// other rotations of the same value (Halevi–Shoup hoisting): the
    /// decomposition and its forward NTTs are paid once by the group
    /// leader (costed as [`CostOp::Rotate`]), so each additional rotation
    /// is only the key multiply-accumulate, an evaluation-domain
    /// permutation, and the inverse-NTT/mod-down tail.
    RotateHoisted,
    /// Rescale (divide by the last prime).
    Rescale,
    /// Modulus switch (drop the last prime).
    ModSwitch,
}

impl CostOp {
    /// All cost categories.
    pub const ALL: [CostOp; 9] = [
        CostOp::AddCC,
        CostOp::AddCP,
        CostOp::MulCC,
        CostOp::MulCP,
        CostOp::Negate,
        CostOp::Rotate,
        CostOp::RotateHoisted,
        CostOp::Rescale,
        CostOp::ModSwitch,
    ];

    /// Stable lower-case name, used as the `cost_op` attribute on
    /// execution trace spans.
    pub fn name(self) -> &'static str {
        match self {
            CostOp::AddCC => "add_cc",
            CostOp::AddCP => "add_cp",
            CostOp::MulCC => "mul_cc",
            CostOp::MulCP => "mul_cp",
            CostOp::Negate => "negate",
            CostOp::Rotate => "rotate",
            CostOp::RotateHoisted => "rotate_hoisted",
            CostOp::Rescale => "rescale",
            CostOp::ModSwitch => "mod_switch",
        }
    }

    /// Parses a [`CostOp::name`] back into the category.
    pub fn from_name(name: &str) -> Option<CostOp> {
        CostOp::ALL.into_iter().find(|op| op.name() == name)
    }
}

/// A measured `(operation, active primes) → microseconds` table for one
/// ring degree, as folded from execution spans by
/// [`CostTable::from_trace`]. Entries are ordered, so lookups and
/// iteration never depend on hashing.
#[derive(Debug, Clone, Default)]
pub struct CostTable {
    /// Ring degree the table was measured at.
    pub degree: usize,
    entries: BTreeMap<(CostOp, usize), f64>,
}

impl CostTable {
    /// Creates an empty table for a degree.
    pub fn new(degree: usize) -> Self {
        CostTable {
            degree,
            entries: BTreeMap::new(),
        }
    }

    /// Records a measurement.
    pub fn set(&mut self, op: CostOp, active_primes: usize, micros: f64) {
        self.entries.insert((op, active_primes), micros);
    }

    /// All `(op, active primes, µs)` measurements, in `(op, active primes)`
    /// order.
    pub fn measurements(&self) -> impl Iterator<Item = (CostOp, usize, f64)> + '_ {
        self.entries.iter().map(|(&(op, c), &us)| (op, c, us))
    }

    /// Looks up a measurement; falls back to the nearest measured prefix
    /// scaled analytically if the exact prefix is missing (the smaller
    /// prefix when two are equally near).
    pub fn get(&self, op: CostOp, active_primes: usize) -> Option<f64> {
        if let Some(v) = self.entries.get(&(op, active_primes)) {
            return Some(*v);
        }
        // Nearest-neighbour fallback with analytic scaling.
        let nearest = self
            .entries
            .range((op, 0)..=(op, usize::MAX))
            .min_by_key(|((_, c), _)| c.abs_diff(active_primes))?;
        let ((_, c0), v0) = nearest;
        let a = analytic_cost_us(op, active_primes, self.degree);
        let b = analytic_cost_us(op, *c0, self.degree);
        Some(v0 * a / b)
    }

    /// Folds the per-op execution spans of a trace into a measured cost
    /// table — the loop-closing aggregation: the table this produces is
    /// exactly what [`CostModel::Profiled`] consumes, so a traced run
    /// re-calibrates the estimator against the backend it ran on.
    ///
    /// Spans named `exec-op` are paired per thread (unmatched begins and
    /// ends are skipped, so a torn trace degrades rather than fails). Each
    /// span carries its [`LoweredOp::label`](crate::lowering::LoweredOp::label) as `cost_op`, the
    /// `active_primes` it executed at, and the measured kernel time `us`.
    /// Multi-category ops (a downscale is a plaintext multiply plus a
    /// rescale) split their time across categories in proportion to the
    /// analytic model. Cell means are then repaired to be nondecreasing in
    /// active primes by pool-adjacent-violators isotonic regression —
    /// physically, more primes is never less work, so monotone violations
    /// are measurement noise.
    pub fn from_trace(events: &[hecate_telemetry::Event], degree: usize) -> CostTable {
        // (op, active) → (Σ µs, sample count)
        let mut cells: BTreeMap<(CostOp, usize), (f64, f64)> = BTreeMap::new();
        let mut stacks: HashMap<u64, Vec<&hecate_telemetry::Event>> = HashMap::new();
        for ev in events {
            match ev.kind {
                hecate_telemetry::EventKind::Begin => {
                    stacks.entry(ev.tid).or_default().push(ev);
                }
                hecate_telemetry::EventKind::End => {
                    let Some(begin) = stacks.entry(ev.tid).or_default().pop() else {
                        continue;
                    };
                    if begin.name != "exec-op" || ev.name != "exec-op" {
                        continue;
                    }
                    let attr = |key: &str| {
                        ev.attrs
                            .iter()
                            .chain(begin.attrs.iter())
                            .find(|(k, _)| *k == key)
                            .map(|(_, v)| v)
                    };
                    let Some(us) = attr("us").and_then(|v| v.as_f64()) else {
                        continue;
                    };
                    let Some(active) = attr("active_primes").and_then(|v| v.as_i64()) else {
                        continue;
                    };
                    let active = active.max(1) as usize;
                    let cats: Vec<CostOp> = attr("cost_op")
                        .and_then(|v| v.as_str())
                        .map(|label| label.split('+').filter_map(CostOp::from_name).collect())
                        .unwrap_or_default();
                    if cats.is_empty() {
                        continue;
                    }
                    let analytic: Vec<f64> = cats
                        .iter()
                        .map(|&c| analytic_cost_us(c, active, degree).max(1e-12))
                        .collect();
                    let total: f64 = analytic.iter().sum();
                    for (&cat, &a) in cats.iter().zip(&analytic) {
                        let cell = cells.entry((cat, active)).or_insert((0.0, 0.0));
                        cell.0 += us * a / total;
                        cell.1 += 1.0;
                    }
                }
                _ => {}
            }
        }
        let mut table = CostTable::new(degree);
        for op in CostOp::ALL {
            let points: Vec<(usize, f64, f64)> = cells
                .range((op, 0)..=(op, usize::MAX))
                .map(|(&(_, active), &(sum, n))| (active, sum / n, n))
                .collect();
            for (active, us) in pava_nondecreasing(&points) {
                table.set(op, active, us);
            }
        }
        table
    }
}

/// Weighted pool-adjacent-violators: returns `(x, y)` with the smallest
/// weighted-L2 adjustment of `y` that is nondecreasing in `x`. Input must
/// be sorted by `x`; triples are `(x, y, weight)`.
fn pava_nondecreasing(points: &[(usize, f64, f64)]) -> Vec<(usize, f64)> {
    // Each block pools a run of adjacent points into their weighted mean.
    let mut blocks: Vec<(f64, f64, usize)> = Vec::new(); // (mean, weight, len)
    for &(_, y, w) in points {
        blocks.push((y, w, 1));
        while blocks.len() >= 2 {
            let (m2, w2, n2) = blocks[blocks.len() - 1];
            let (m1, w1, n1) = blocks[blocks.len() - 2];
            if m1 <= m2 {
                break;
            }
            blocks.truncate(blocks.len() - 2);
            let w = w1 + w2;
            blocks.push(((m1 * w1 + m2 * w2) / w, w, n1 + n2));
        }
    }
    let mut out = Vec::with_capacity(points.len());
    let mut i = 0;
    for (mean, _, len) in blocks {
        for _ in 0..len {
            out.push((points[i].0, mean));
            i += 1;
        }
    }
    out
}

/// The latency model used by the estimator.
#[derive(Debug, Clone, Default)]
pub enum CostModel {
    /// Deterministic asymptotic model.
    #[default]
    Analytic,
    /// Table measured on the execution backend.
    Profiled(Arc<CostTable>),
}

impl CostModel {
    /// Cost of one operation in microseconds at the given active-prime
    /// count and ring degree.
    pub fn cost_us(&self, op: CostOp, active_primes: usize, degree: usize) -> f64 {
        match self {
            CostModel::Analytic => analytic_cost_us(op, active_primes, degree),
            CostModel::Profiled(t) => t
                .get(op, active_primes)
                .unwrap_or_else(|| analytic_cost_us(op, active_primes, degree)),
        }
    }
}

/// The analytic latency model, microseconds.
///
/// Shapes (with `c` = active primes, `n` = degree, `lg = log2 n`):
/// elementwise passes are `Θ(n·c)`, NTTs are `Θ(n·lg)` each, and key
/// switching performs `Θ(c²)` NTTs plus `Θ(n·c²)` accumulation — the
/// quadratic-in-level behaviour the paper describes. Constants are
/// calibrated to this repository's interpreter-free Rust backend.
pub fn analytic_cost_us(op: CostOp, c: usize, n: usize) -> f64 {
    let c = c as f64;
    let n = n as f64;
    let lg = n.log2();
    // Calibration constants (µs): 4 ns per element for pointwise passes,
    // 6 ns per point-stage for NTTs — measured against this repository's
    // backend at n = 512–4096.
    let elem = 0.004;
    let ntt_pass = |count: f64| count * 0.006 * n * lg;
    let pass = |count: f64| count * elem * n * c;
    // Key switch at prefix c: c digit lifts, c·(c+1) forward NTTs,
    // 2·(c+1) inverse NTTs, 2·c·(c+1) multiply-accumulate passes,
    // and a mod-down pass.
    let keyswitch = ntt_pass(c * (c + 1.0) + 2.0 * (c + 1.0) + 2.0 * c)
        + 2.0 * elem * n * c * (c + 1.0)
        + pass(4.0);
    match op {
        CostOp::AddCC => pass(2.0),
        // Plaintexts are pre-transformed to NTT form, so ct⊙pt operations
        // are pointwise passes only.
        CostOp::AddCP => pass(1.0),
        CostOp::Negate => pass(2.0),
        CostOp::MulCP => pass(2.0),
        CostOp::MulCC => pass(4.0) + keyswitch,
        CostOp::Rotate => pass(2.0) + ntt_pass(4.0 * c) + keyswitch,
        // A hoisted rotation reuses the leader's digit decomposition and
        // forward NTTs; what remains is the evaluation-domain permutation
        // of each digit, the key multiply-accumulate, the inverse
        // NTT/mod-down tail, and the c0 permutation+add.
        CostOp::RotateHoisted => {
            pass(2.0)
                + ntt_pass(2.0 * (c + 1.0) + 2.0 * c)
                + 2.0 * elem * n * c * (c + 1.0)
                + elem * n * c * (c + 1.0)
                + pass(4.0)
        }
        CostOp::Rescale => ntt_pass(4.0 * c) + pass(4.0),
        CostOp::ModSwitch => 0.002 * n,
    }
}

/// Statically estimates the output noise of a typed program, in log2 of
/// the decoded-domain standard deviation ("noise bits"; more negative is
/// more precise): [`NoiseRule`] folded with every message mean-square
/// taken as 1 (messages assumed O(1)), reporting the worst output.
/// [`crate::compile`] calls it once, on the winning plan, for
/// [`crate::CompileStats::estimated_noise_bits`].
pub fn estimate_noise_bits(func: &Function, types: &[Type], degree: usize) -> f64 {
    let vars = NoiseRule::new(degree, 1.0).fold(func, types, |_| 1.0);
    let worst = func.outputs().iter().map(|(_, v)| vars[v.index()]);
    0.5 * worst.fold(0.0, f64::max).log2()
}

/// Estimates the execution latency (microseconds) of a typed program on a
/// chain of `chain_len` primes at ring degree `degree`: the cost model
/// summed over its solo [`Lowering`] at `degree / 2` slots (at least its
/// width), pricing each op at its operand level and hoist role.
pub fn estimate_latency_us(
    func: &Function,
    types: &[Type],
    model: &CostModel,
    chain_len: usize,
    degree: usize,
) -> f64 {
    latency_breakdown(func, types, model, chain_len, degree)
        .values()
        .sum()
}

/// Like [`estimate_latency_us`], but broken down per cost category —
/// useful for seeing where a compiled program spends its time (key
/// switching almost always dominates).
pub fn latency_breakdown(
    func: &Function,
    types: &[Type],
    model: &CostModel,
    chain_len: usize,
    degree: usize,
) -> BTreeMap<CostOp, f64> {
    let slots = (degree / 2).max(func.vec_size);
    let mut totals = BTreeMap::new();
    for op in Lowering::new(func, types, chain_len, slots, 1).ops() {
        for &cat in op.cost_ops {
            *totals.entry(cat).or_insert(0.0) += model.cost_us(cat, op.active_primes, degree);
        }
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ir::types::{infer_types, TypeConfig};
    use hecate_ir::FunctionBuilder;
    use hecate_telemetry::Event;

    #[test]
    fn deeper_level_is_cheaper() {
        for op in [
            CostOp::MulCC,
            CostOp::Rotate,
            CostOp::AddCC,
            CostOp::Rescale,
        ] {
            let shallow = analytic_cost_us(op, 8, 4096);
            let deep = analytic_cost_us(op, 2, 4096);
            assert!(deep < shallow, "{op:?} should be cheaper with fewer primes");
        }
    }

    #[test]
    fn mul_level1_speedup_is_in_paper_ballpark() {
        // §II-C: level-1 multiplication ≈ 2.25× faster than level 0 — the
        // analytic model must show a clearly super-linear drop.
        let l0 = analytic_cost_us(CostOp::MulCC, 6, 8192);
        let l1 = analytic_cost_us(CostOp::MulCC, 5, 8192);
        let ratio = l0 / l1;
        assert!(
            ratio > 1.2 && ratio < 3.0,
            "level-1 speedup {ratio} out of plausible range"
        );
    }

    #[test]
    fn keyswitch_ops_dominate_elementwise() {
        let mul = analytic_cost_us(CostOp::MulCC, 4, 4096);
        let add = analytic_cost_us(CostOp::AddCC, 4, 4096);
        assert!(mul > 20.0 * add);
    }

    #[test]
    fn estimate_sums_and_respects_levels() {
        let mut b = FunctionBuilder::new("e", 4);
        let x = b.input_cipher("x");
        let m = b.mul(x, x);
        b.output(m);
        let f = b.finish();
        let cfg = TypeConfig::new(20.0, 40.0);
        let tys = infer_types(&f, &cfg).unwrap();
        let model = CostModel::Analytic;
        let est = estimate_latency_us(&f, &tys, &model, 3, 1024);
        let expect = analytic_cost_us(CostOp::MulCC, 3, 1024);
        assert!((est - expect).abs() < 1e-9);
    }

    #[test]
    fn breakdown_sums_to_estimate() {
        let mut b = FunctionBuilder::new("bd", 4);
        let x = b.input_cipher("x");
        let m = b.mul(x, x);
        let r = b.rotate(m, 1);
        let a = b.add(r, r);
        b.output(a);
        let f = b.finish();
        let cfg = TypeConfig::new(20.0, 60.0);
        let tys = infer_types(&f, &cfg).unwrap();
        let model = CostModel::Analytic;
        let table = latency_breakdown(&f, &tys, &model, 3, 1024);
        let total: f64 = table.values().sum();
        let est = estimate_latency_us(&f, &tys, &model, 3, 1024);
        assert!((total - est).abs() < 1e-9);
        assert!(table.contains_key(&CostOp::MulCC));
        assert!(table.contains_key(&CostOp::Rotate));
        assert!(table.contains_key(&CostOp::AddCC));
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn profiled_table_lookup_and_fallback() {
        let mut t = CostTable::new(1024);
        t.set(CostOp::MulCC, 4, 1000.0);
        t.set(CostOp::MulCC, 2, 300.0);
        assert_eq!(t.get(CostOp::MulCC, 4), Some(1000.0));
        // Missing prefix 3 falls back to nearest with analytic scaling —
        // monotone between the two anchors.
        let v = t.get(CostOp::MulCC, 3).unwrap();
        assert!(v > 300.0 && v < 1000.0, "interpolated {v}");
        assert_eq!(t.get(CostOp::Rotate, 3), None);
    }

    #[test]
    fn equidistant_fallback_is_the_same_in_every_table() {
        // Prefix 3 is equally near the cells at 2 and 4; every one of many
        // equal tables must resolve the tie the same way (the smaller).
        let answers: Vec<f64> = (0..64)
            .map(|_| {
                let mut t = CostTable::new(1024);
                t.set(CostOp::MulCC, 4, 1000.0);
                t.set(CostOp::MulCC, 2, 300.0);
                t.get(CostOp::MulCC, 3).unwrap()
            })
            .collect();
        assert!(answers.iter().all(|&a| a == answers[0]), "{answers:?}");
        let from_two = 300.0 * analytic_cost_us(CostOp::MulCC, 3, 1024)
            / analytic_cost_us(CostOp::MulCC, 2, 1024);
        assert_eq!(answers[0], from_two);
    }

    #[test]
    fn hoisted_rotation_is_cheaper_than_plain() {
        for (c, n) in [(2usize, 1024usize), (4, 4096), (8, 8192)] {
            let plain = analytic_cost_us(CostOp::Rotate, c, n);
            let hoisted = analytic_cost_us(CostOp::RotateHoisted, c, n);
            assert!(
                hoisted < plain,
                "c={c} n={n}: hoisted {hoisted} >= plain {plain}"
            );
        }
        // Still cheaper with fewer primes (level structure preserved).
        assert!(
            analytic_cost_us(CostOp::RotateHoisted, 2, 4096)
                < analytic_cost_us(CostOp::RotateHoisted, 8, 4096)
        );
    }

    #[test]
    fn rotations_of_a_program_wider_than_the_ring_keep_their_cost() {
        // A 16-wide program at degree 16 (8 slots): rotating by 8 is not
        // the identity of its logical vector, so it is still priced.
        let mut b = FunctionBuilder::new("wide", 16);
        let x = b.input_cipher("x");
        let r = b.rotate(x, 8);
        b.output(r);
        let f = b.finish();
        let tys = infer_types(&f, &TypeConfig::new(20.0, 60.0)).unwrap();
        let est = estimate_latency_us(&f, &tys, &CostModel::Analytic, 3, 16);
        assert_eq!(est, analytic_cost_us(CostOp::Rotate, 3, 16));
    }

    #[test]
    fn cost_op_names_round_trip() {
        for op in CostOp::ALL {
            assert_eq!(CostOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CostOp::from_name("bogus"), None);
    }

    #[test]
    fn pava_repairs_monotone_violations() {
        // (x, y, w): the dip at x=3 pools with x=2.
        let pts = [
            (1, 10.0, 1.0),
            (2, 30.0, 1.0),
            (3, 20.0, 1.0),
            (4, 40.0, 1.0),
        ];
        let out = pava_nondecreasing(&pts);
        assert_eq!(out.len(), 4);
        for w in out.windows(2) {
            assert!(w[0].1 <= w[1].1 + 1e-12, "not monotone: {out:?}");
        }
        assert_eq!(out[0].1, 10.0);
        assert_eq!(out[1].1, 25.0);
        assert_eq!(out[2].1, 25.0);
        assert_eq!(out[3].1, 40.0);
    }

    fn exec_op_span(tid: u64, ts: u64, label: &'static str, active: i64, us: f64) -> [Event; 2] {
        use hecate_telemetry::EventKind;
        [
            Event {
                kind: EventKind::Begin,
                name: "exec-op",
                ts_ns: ts,
                tid,
                attrs: vec![("cost_op", label.into()), ("active_primes", active.into())],
            },
            Event {
                kind: EventKind::End,
                name: "exec-op",
                ts_ns: ts + 100,
                tid,
                attrs: vec![("us", us.into())],
            },
        ]
    }

    #[test]
    fn from_trace_folds_spans_into_cells() {
        let mut events: Vec<Event> = Vec::new();
        // Two mul_cc samples at 3 primes, one at 2 (cheaper), and a noisy
        // inversion for add_cc that PAVA must repair.
        events.extend(exec_op_span(1, 0, "mul_cc", 3, 900.0));
        events.extend(exec_op_span(1, 200, "mul_cc", 3, 1100.0));
        events.extend(exec_op_span(1, 400, "mul_cc", 2, 400.0));
        events.extend(exec_op_span(2, 0, "add_cc", 2, 9.0));
        events.extend(exec_op_span(2, 200, "add_cc", 3, 5.0));
        let table = CostTable::from_trace(&events, 1024);
        assert_eq!(table.get(CostOp::MulCC, 3), Some(1000.0), "mean of samples");
        assert_eq!(table.get(CostOp::MulCC, 2), Some(400.0));
        // add_cc was measured *decreasing* in primes; the repaired table
        // is nondecreasing (both cells pool to the mean).
        let a2 = table.get(CostOp::AddCC, 2).unwrap();
        let a3 = table.get(CostOp::AddCC, 3).unwrap();
        assert!(a2 <= a3 + 1e-12, "PAVA must repair {a2} > {a3}");
        assert!((a2 - 7.0).abs() < 1e-9 && (a3 - 7.0).abs() < 1e-9);
        assert_eq!(table.degree, 1024);
    }

    #[test]
    fn from_trace_splits_multi_category_ops() {
        let events: Vec<Event> = exec_op_span(1, 0, "mul_cp+rescale", 3, 100.0).into();
        let table = CostTable::from_trace(&events, 1024);
        let mulcp = table.get(CostOp::MulCP, 3).unwrap();
        let rescale = table.get(CostOp::Rescale, 3).unwrap();
        assert!(
            (mulcp + rescale - 100.0).abs() < 1e-9,
            "split conserves time"
        );
        // Rescale is analytically the pricier half, so it gets more.
        assert!(rescale > mulcp);
    }

    #[test]
    fn from_trace_tolerates_torn_and_foreign_spans() {
        use hecate_telemetry::EventKind;
        let mut events: Vec<Event> = Vec::new();
        // An unterminated outer span and a foreign pass span around a
        // valid exec-op span: the fold extracts the one good measurement.
        events.push(Event {
            kind: EventKind::Begin,
            name: "execute",
            ts_ns: 0,
            tid: 1,
            attrs: vec![],
        });
        events.extend(exec_op_span(1, 10, "rotate", 4, 250.0));
        events.push(Event {
            kind: EventKind::End,
            name: "exec-op", // end without begin on another thread
            ts_ns: 50,
            tid: 7,
            attrs: vec![("us", 1.0.into())],
        });
        let table = CostTable::from_trace(&events, 1024);
        assert_eq!(table.get(CostOp::Rotate, 4), Some(250.0));
        assert_eq!(table.measurements().count(), 1);
    }

    #[test]
    fn downscale_costs_mulcp_plus_rescale() {
        use hecate_ir::{Function, Op, ValueId};
        let mut f = Function::new("d", 4);
        let x = f.push(Op::Input { name: "x".into() });
        let m = f.push(Op::Mul(x, x));
        let d = f.push(Op::Downscale(m));
        f.mark_output("o", d);
        let _ = (m, d);
        let cfg = TypeConfig::new(20.0, 60.0);
        let tys = infer_types(&f, &cfg).unwrap();
        let est = estimate_latency_us(&f, &tys, &CostModel::Analytic, 3, 1024);
        let expect = analytic_cost_us(CostOp::MulCC, 3, 1024)
            + analytic_cost_us(CostOp::MulCP, 3, 1024)
            + analytic_cost_us(CostOp::Rescale, 3, 1024);
        assert!((est - expect).abs() < 1e-9);
        let _ = ValueId(0);
    }
}
