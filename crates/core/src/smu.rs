//! Scale management unit (SMU) generation — paper §V, Algorithm 1.
//!
//! SMSE explores where to insert scale-management operations. Doing so per
//! use–def edge is intractable (Table III's "naïve" column), so HECATE
//! first partitions the program's ciphertext values into *units* whose
//! members share a scale/level trajectory and can be managed together. The
//! three phases:
//!
//! 1. **Definition-aware merge** (forward): values produced with the same
//!    scale and level fall into the same unit; scale-changing operations
//!    open a new unit per distinct `(operator, operand units)` combination,
//!    so parallel identical operations share a unit.
//! 2. **Operation-aware split**: multiplication results are split from
//!    non-multiplication results, because the multiplication prefix always
//!    has scale headroom (`≥ S_w²`) for proactive management.
//! 3. **User-aware split** (backward): values consumed by different units
//!    are separated, since different downstream plans may suit them.
//!
//! Plans then assign optimization degrees to *edges between units*.

use hecate_ir::analysis::users;
use hecate_ir::{Function, Op, ValueId};
use std::collections::HashMap;

/// The result of scale-management-unit analysis. The default is the
/// edge-less analysis of a pure policy (EVA or PARS without a plan).
#[derive(Debug, Clone, Default)]
pub struct SmuAnalysis {
    /// Unit of each value (`None` for free/plain values, which are not
    /// scale-managed).
    pub unit_of: Vec<Option<u32>>,
    /// Number of units.
    pub unit_count: usize,
    /// Distinct def→use edges between different units, sorted.
    pub edges: Vec<(u32, u32)>,
}

impl SmuAnalysis {
    /// Every cipher value its own unit, numbered by its value id: the edges
    /// are exactly the distinct cipher use–def pairs `(def, user)`, the
    /// naïve search space of Table III.
    pub fn per_value(func: &Function) -> SmuAnalysis {
        let unit_of: Vec<Option<u32>> = cipherness(func)
            .iter()
            .enumerate()
            .map(|(i, &c)| c.then_some(i as u32))
            .collect();
        let unit_count = unit_of.iter().flatten().count();
        with_edges(func, unit_of, unit_count)
    }

    /// The edge index of `(from, to)` if such an inter-unit edge exists.
    pub fn edge_index(&self, from: u32, to: u32) -> Option<usize> {
        self.edges.binary_search(&(from, to)).ok()
    }
}

/// Virtual scales of an input (pre-management) program: inputs and
/// constants at the waterline, `mul` adds scales, everything else
/// preserves the larger operand scale. All levels are zero, so "same scale
/// and level" reduces to equal virtual scale.
fn virtual_scales(func: &Function, waterline: f64) -> Vec<f64> {
    let mut s: Vec<f64> = Vec::with_capacity(func.len());
    for op in func.ops() {
        let get = |v: &ValueId| s[v.index()];
        let v = match op {
            Op::Input { .. } | Op::Const { .. } | Op::Encode { .. } => waterline,
            Op::Mul(a, b) => get(a) + get(b),
            Op::Add(a, b) | Op::Sub(a, b) => get(a).max(get(b)),
            Op::Negate(a) | Op::Rotate { value: a, .. } => get(a),
            // Input programs contain no scale management; treat as identity.
            Op::Rescale(a) | Op::ModSwitch(a) | Op::Upscale { value: a, .. } | Op::Downscale(a) => {
                get(a)
            }
        };
        s.push(v);
    }
    s
}

/// Whether each value is a ciphertext in the input program (inputs are
/// encrypted; cipherness propagates through operations).
fn cipherness(func: &Function) -> Vec<bool> {
    let mut c = Vec::with_capacity(func.len());
    for op in func.ops() {
        let v = match op {
            Op::Input { .. } => true,
            Op::Const { .. } => false,
            _ => op.operands().iter().any(|v| c[v.index()]),
        };
        c.push(v);
    }
    c
}

/// Union-find over unit labels.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }
    fn make(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        id
    }
    fn find(&mut self, x: u32) -> u32 {
        let p = self.parent[x as usize];
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent[x as usize] = root;
        root
    }
    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
        ra
    }
}

/// Which of Algorithm 1's split phases to run — the merge phase is always
/// on. Disabling a split is an ablation knob: fewer, coarser units mean a
/// smaller search space but fewer distinguishable plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmuOptions {
    /// Phase 2: split multiplication results from the rest.
    pub operation_split: bool,
    /// Phase 3: split values consumed by different units.
    pub user_split: bool,
}

impl Default for SmuOptions {
    fn default() -> Self {
        SmuOptions {
            operation_split: true,
            user_split: true,
        }
    }
}

/// Runs the three-phase SMU analysis on an input program.
pub fn analyze(func: &Function, waterline: f64) -> SmuAnalysis {
    analyze_with(func, waterline, &SmuOptions::default())
}

/// Runs the SMU analysis with selected phases (ablation entry point).
pub fn analyze_with(func: &Function, waterline: f64, opts: &SmuOptions) -> SmuAnalysis {
    let scales = virtual_scales(func, waterline);
    let cipher = cipherness(func);
    let n = func.len();

    // ---- Phase 1: definition-aware merge (forward). ----
    let mut uf = UnionFind::new();
    let mut label: Vec<Option<u32>> = vec![None; n];
    // Memo of (operator, operand units) → unit, for scale-changing ops.
    let mut combo: HashMap<(&'static str, Vec<u32>), u32> = HashMap::new();
    let mut input_unit: Option<u32> = None;

    for (i, op) in func.ops().iter().enumerate() {
        if !cipher[i] {
            continue;
        }
        let cipher_operands: Vec<usize> = op
            .operands()
            .iter()
            .map(|v| v.index())
            .filter(|&v| cipher[v])
            .collect();
        let new_label = match op {
            Op::Input { .. } => {
                let u = *input_unit.get_or_insert_with(|| uf.make());
                u
            }
            Op::Add(a, b) | Op::Sub(a, b) if cipher[a.index()] && cipher[b.index()] => {
                let (ua, ub) = (
                    uf.find(label[a.index()].expect("cipher labelled")),
                    uf.find(label[b.index()].expect("cipher labelled")),
                );
                if scales[a.index()] == scales[b.index()] {
                    // Same scale and level: merge operands and result.
                    uf.union(ua, ub)
                } else {
                    let mut key = vec![ua, ub];
                    key.sort_unstable();
                    *combo.entry(("add", key)).or_insert_with(|| uf.make())
                }
            }
            Op::Add(..) | Op::Sub(..) => {
                // Plaintext addition: scale/level unchanged — join the
                // cipher operand's unit.
                uf.find(label[cipher_operands[0]].expect("cipher labelled"))
            }
            Op::Mul(a, b) => {
                if cipher[a.index()] && cipher[b.index()] {
                    let mut key = vec![
                        uf.find(label[a.index()].expect("labelled")),
                        uf.find(label[b.index()].expect("labelled")),
                    ];
                    key.sort_unstable();
                    *combo.entry(("mul", key)).or_insert_with(|| uf.make())
                } else {
                    let key = vec![uf.find(label[cipher_operands[0]].expect("labelled"))];
                    *combo.entry(("mulp", key)).or_insert_with(|| uf.make())
                }
            }
            // Scale/level-preserving unary operations join their operand.
            _ => uf.find(label[cipher_operands[0]].expect("cipher labelled")),
        };
        label[i] = Some(new_label);
    }

    // Resolve union-find to canonical phase-1 units.
    let mut phase1: Vec<Option<u32>> = label.iter().map(|l| l.map(|x| uf.find(x))).collect();

    // ---- Phase 2: operation-aware split (mul prefix vs the rest). ----
    let mut split2: HashMap<(u32, bool), u32> = HashMap::new();
    let mut next = 0u32;
    for (i, op) in func.ops().iter().enumerate() {
        if let Some(u) = phase1[i] {
            let is_mul = opts.operation_split && matches!(op, Op::Mul(..));
            let id = *split2.entry((u, is_mul)).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            phase1[i] = Some(id);
        }
    }

    // ---- Phase 3: user-aware split (backward). ----
    // The signature of a value is the set of (phase-2) units its users'
    // results belong to; members of a unit consumed by different units are
    // separated. Using phase-2 units keeps long same-unit chains together
    // (a final-unit signature would cascade a fresh unit down every link).
    let use_lists = users(func);
    let mut split3: HashMap<(u32, Vec<u32>), u32> = HashMap::new();
    let mut next3 = 0u32;
    let mut unit_of: Vec<Option<u32>> = vec![None; n];
    for i in (0..n).rev() {
        let Some(u) = phase1[i] else { continue };
        let mut sig: Vec<u32> = if opts.user_split {
            use_lists[i]
                .iter()
                .filter_map(|user| phase1[user.index()])
                .collect()
        } else {
            Vec::new()
        };
        sig.sort_unstable();
        sig.dedup();
        let id = *split3.entry((u, sig)).or_insert_with(|| {
            let id = next3;
            next3 += 1;
            id
        });
        unit_of[i] = Some(id);
    }

    with_edges(func, unit_of, next3 as usize)
}

/// Completes an analysis from its unit assignment: the distinct def→use
/// edges between different units, sorted.
fn with_edges(func: &Function, unit_of: Vec<Option<u32>>, unit_count: usize) -> SmuAnalysis {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for (i, op) in func.ops().iter().enumerate() {
        let Some(to) = unit_of[i] else { continue };
        for v in op.operands() {
            if let Some(from) = unit_of[v.index()] {
                if from != to {
                    edges.push((from, to));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    SmuAnalysis {
        unit_of,
        unit_count,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ir::FunctionBuilder;
    use std::collections::HashSet;

    /// The paper's Fig. 6 example: (x² + y²)·z.
    fn fig6() -> (Function, [ValueId; 7]) {
        let mut b = FunctionBuilder::new("fig6", 4);
        let x = b.input_cipher("x");
        let y = b.input_cipher("y");
        let z = b.input_cipher("z");
        let x2 = b.square(x);
        let y2 = b.square(y);
        let sum = b.add(x2, y2);
        let prod = b.mul(sum, z);
        b.output(prod);
        (b.finish(), [x, y, z, x2, y2, sum, prod])
    }

    #[test]
    fn fig6_units_match_paper() {
        let (f, [x, y, z, x2, y2, sum, prod]) = fig6();
        let smu = analyze(&f, 20.0);
        let u = |v: ValueId| smu.unit_of[v.index()].unwrap();
        // Fig. 6c: {x, y}, {z}, {x², y²}, {x²+y²}, {(x²+y²)z}.
        assert_eq!(u(x), u(y));
        assert_ne!(u(x), u(z));
        assert_eq!(u(x2), u(y2));
        assert_ne!(u(x2), u(sum));
        assert_ne!(u(sum), u(prod));
        assert_eq!(smu.unit_count, 5);
        // Edges: inputs→squares, squares→sum, sum→prod, z→prod.
        assert_eq!(smu.edges.len(), 4);
        let expected: HashSet<(u32, u32)> = [
            (u(x), u(x2)),
            (u(x2), u(sum)),
            (u(sum), u(prod)),
            (u(z), u(prod)),
        ]
        .into_iter()
        .collect();
        assert_eq!(smu.edges.iter().copied().collect::<HashSet<_>>(), expected);
    }

    #[test]
    fn per_value_edges_are_the_distinct_cipher_use_def_pairs() {
        let mut b = FunctionBuilder::new("pv", 4);
        let x = b.input_cipher("x");
        let c = b.splat(2.0);
        let x2 = b.square(x); // uses x twice: one edge
        let y = b.mul(x2, c); // the plaintext use is no edge
        let z = b.add(y, x);
        b.output(z);
        let f = b.finish();
        let pv = SmuAnalysis::per_value(&f);
        // Sorted, distinct, cipher-defined (def, user) pairs.
        assert_eq!(pv.edges, [(x.0, x2.0), (x.0, z.0), (x2.0, y.0), (y.0, z.0)]);
        assert_eq!(pv.unit_count, 4, "x, x², y, z");
        assert_eq!(pv.unit_of[c.index()], None);
    }

    #[test]
    fn parallel_identical_ops_share_units() {
        // Sixteen parallel squares of inputs collapse into one unit.
        let mut b = FunctionBuilder::new("par", 4);
        let inputs: Vec<ValueId> = (0..16).map(|i| b.input_cipher(format!("x{i}"))).collect();
        let squares: Vec<ValueId> = inputs.iter().map(|&v| b.square(v)).collect();
        // Sum them pairwise (same scale, merges).
        let mut acc = squares[0];
        for &s in &squares[1..] {
            acc = b.add(acc, s);
        }
        b.output(acc);
        let f = b.finish();
        let smu = analyze(&f, 20.0);
        // Units: inputs; squares; intermediate sums; the final sum (outputs
        // have an empty user signature and split off): 4 units.
        assert_eq!(smu.unit_count, 4);
        assert!(smu.edges.len() <= 4);
    }

    #[test]
    fn plaintext_ops_stay_in_operand_unit() {
        let mut b = FunctionBuilder::new("pt", 4);
        let x = b.input_cipher("x");
        let c = b.splat(1.5);
        let shifted = b.add(x, c); // +p: same unit as x
        let rotated = b.rotate(shifted, 1); // preserves type: same unit
        b.output(rotated);
        let f = b.finish();
        let smu = analyze(&f, 20.0);
        assert_eq!(smu.unit_of[c.index()], None);
        assert_eq!(smu.unit_of[x.index()], smu.unit_of[shifted.index()]);
        // The output value has an empty user signature and splits off; the
        // +p and rotate results otherwise stay with their operand.
        assert_eq!(smu.unit_count, 2);
        assert!(smu.edges.len() <= 1);
    }

    #[test]
    fn ct_pt_mul_opens_new_unit_shared_across_parallel_uses() {
        let mut b = FunctionBuilder::new("ptmul", 4);
        let x = b.input_cipher("x");
        let c1 = b.splat(2.0);
        let c2 = b.splat(3.0);
        let m1 = b.mul(x, c1);
        let m2 = b.mul(x, c2);
        let s = b.add(m1, m2);
        b.output(s);
        let f = b.finish();
        let smu = analyze(&f, 20.0);
        // Both ct×pt muls from x's unit share one unit; the add (merged in
        // phase 1, split from the muls in phase 2) is its own output unit.
        assert_eq!(smu.unit_of[m1.index()], smu.unit_of[m2.index()]);
        assert_eq!(smu.unit_count, 3);
        assert_eq!(smu.edges.len(), 2);
    }

    #[test]
    fn user_aware_split_separates_differently_used_inputs() {
        // x used in a square; z used in a product with the square: the
        // inputs must not share a unit (Fig. 6 phase 3).
        let (f, [x, _, z, ..]) = fig6();
        let smu = analyze(&f, 20.0);
        assert_ne!(smu.unit_of[x.index()], smu.unit_of[z.index()]);
    }

    #[test]
    fn smu_count_far_below_uses_for_wide_programs() {
        // A reduction tree: many uses, few units (Table III's point).
        let mut b = FunctionBuilder::new("tree", 64);
        let inputs: Vec<ValueId> = (0..32).map(|i| b.input_cipher(format!("x{i}"))).collect();
        let prods: Vec<ValueId> = inputs.chunks(2).map(|p| b.mul(p[0], p[1])).collect();
        let mut layer = prods;
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|p| b.add(p[0], p[1])).collect();
        }
        b.output(layer[0]);
        let f = b.finish();
        let uses = hecate_ir::analysis::use_edge_count(&f);
        let smu = analyze(&f, 20.0);
        assert!(uses >= 60, "got {uses} uses");
        assert!(smu.unit_count <= 4, "got {} units", smu.unit_count);
    }
}
