//! What every workload shares: the fixed knobs, the traced calls into the
//! apps and compiler layers, and the observation records the per-layer
//! metrics are computed from.

use crate::check::Tally;
use crate::programs::{self, Program, Size};
use crate::trace::Recorder;
use hecate_backend::exec::{BackendOptions, EncryptedRun};
use hecate_compiler::{compile, CompileOptions, CompiledProgram, Scheme};
use hecate_ir::Function;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The waterline of every fixed plan (the serve-mixed hot set adds 28).
pub const WATERLINE: f64 = 24.0;

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// When a part of the window ends. A new unit starts only while at least
/// half the previous unit's time is left, so a part overruns by half a
/// unit at most and undershoots as often: a compile pass takes 2 s, and
/// starting one with 0.1 s left would stretch a run by a tenth.
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds))
    }

    pub fn allows(&self, last_unit_ms: f64) -> bool {
        Instant::now() + Duration::from_secs_f64(last_unit_ms / 2e3) < self.0
    }
}

/// Compiler options at a waterline and ring degree. The degree is set for
/// the compiler too, so its latency estimate prices the ring that runs.
pub fn options(waterline: f64, degree: Option<usize>) -> CompileOptions {
    let mut opts = CompileOptions::with_waterline(waterline);
    opts.degree = degree;
    opts
}

/// Backend options at a ring degree. The box has 2 cores and the load
/// generators already use them, so kernels stay serial.
pub fn backend(degree: usize) -> BackendOptions {
    BackendOptions {
        degree_override: Some(degree),
        kernel_jobs: 1,
        ..BackendOptions::default()
    }
}

/// A request for `program` at a waterline and degree, without deadline or
/// retries: what every client of the runtime sends.
pub fn request(
    session: hecate_runtime::SessionId,
    program: &Program,
    waterline: f64,
    degree: usize,
) -> hecate_runtime::Request {
    hecate_runtime::Request {
        session,
        func: program.func.clone(),
        scheme: Scheme::Hecate,
        options: options(waterline, Some(degree)),
        inputs: program.inputs.clone(),
        deadline: None,
        max_retries: 0,
    }
}

/// What a workload run is given.
pub struct Ctx<'a> {
    pub seed: u64,
    pub rec: &'a Recorder,
    /// Which set-up repetition this is; keeps span request ids apart.
    pub part: u64,
}

impl Ctx<'_> {
    /// Whether unit `i` of a run is recorded. A traced run records two
    /// units, skips two, and so on: both halves of one window then give
    /// the recorder's own cost, and serve-mixed's cold request (every
    /// 10th) falls on both sides.
    pub fn traced(&self, i: u64) -> bool {
        self.rec.enabled() && i % 4 < 2
    }

    /// The id shared by the spans of unit `i` of `client`.
    pub fn req_id(&self, client: u64, i: u64) -> u64 {
        (self.part << 48) | (client << 40) | i
    }

    /// `programs::app` under an `apps.build` span; `salt` varies the data
    /// seed between tenants of one run.
    pub fn build_app(&self, name: &'static str, size: Size, salt: u64) -> Program {
        let _s = self.rec.span(true, "apps.build", name, None, 0);
        programs::app(name, size, self.seed.wrapping_add(salt))
    }

    /// `programs::poly_deep` under an `apps.build` span (its inputs and
    /// coefficients come from `hecate_apps::workloads`).
    pub fn build_poly_deep(&self) -> Program {
        let _s = self.rec.span(true, "apps.build", "poly4x7", None, 0);
        programs::poly_deep(self.seed)
    }

    /// `compile` under a `compiler.compile` span. `program` is the index
    /// `p` will have in [`Base::programs`].
    pub fn compile(
        &self,
        on: bool,
        req: u64,
        program: usize,
        p: &Program,
        waterline: f64,
        degree: Option<usize>,
    ) -> Result<Plan, String> {
        let opts = options(waterline, degree);
        let _s = self.rec.span(on, "compiler.compile", p.name, None, req);
        let t0 = Instant::now();
        let compiled = compile(&p.func, Scheme::Hecate, &opts).map_err(|e| e.to_string())?;
        Ok(Plan {
            program,
            waterline,
            degree,
            compile_ms: ms_since(t0),
            compiled: Arc::new(compiled),
        })
    }
}

/// One compiled plan of a workload's plan set.
pub struct Plan {
    /// Index into [`Base::programs`].
    pub program: usize,
    pub waterline: f64,
    pub degree: Option<usize>,
    pub compile_ms: f64,
    pub compiled: Arc<CompiledProgram>,
}

impl Plan {
    /// `SF w24`: how the readable per-plan lines name this plan.
    pub fn label(&self, program: &Program) -> String {
        format!("{} w{}", program.name, self.waterline)
    }
}

/// Programs and plans a workload's set-up produces.
pub struct Base {
    pub programs: Vec<Program>,
    /// The workload's plan set, then (compile-paper8 only) the probe plan.
    pub plans: Vec<Plan>,
    /// How many of `plans` the workload itself uses.
    pub own_plans: usize,
    /// The plan the layer probe runs, and its ring degree.
    pub probe_plan: usize,
    pub probe_degree: usize,
}

impl Base {
    pub fn own(&self) -> &[Plan] {
        &self.plans[..self.own_plans]
    }

    pub fn probe(&self) -> (&Plan, &Program) {
        let plan = &self.plans[self.probe_plan];
        (plan, &self.programs[plan.program])
    }

    /// Counts that must repeat exactly under one seed: the compiler's
    /// search and output sizes and the probe plan's op mix.
    pub fn exact_counts(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        let mut add = |k: &str, v: f64| *out.entry(k.to_string()).or_insert(0.0) += v;
        for plan in self.own() {
            let (c, s) = (&plan.compiled, &plan.compiled.stats);
            add("compiler.plans_explored", s.plans_explored as f64);
            add("compiler.epochs", s.epochs as f64);
            add("compiler.smu_units", s.smu_units as f64);
            add("compiler.ops_out", c.func.len() as f64);
            add("compiler.chain_len", c.params.chain_len as f64);
            add("compiler.est_us", s.estimated_latency_us);
            add("ir.ops_in", self.programs[plan.program].func.len() as f64);
        }
        let kinds = op_kinds(&self.probe().0.compiled.func);
        for (k, name) in KIND_NAMES.iter().enumerate() {
            let n = kinds.iter().filter(|&&x| x == k).count();
            add(&format!("backend.op_count.{name}"), n as f64);
        }
        out
    }
}

/// The op kinds backend time is grouped by.
pub const KIND_NAMES: [&str; 4] = ["rotate", "mul", "rescale", "other"];

/// Kind index of every op of a compiled function, by IR op. `rescale`
/// takes every level- or scale-changing op the compiler inserts.
pub fn op_kinds(func: &Function) -> Vec<usize> {
    func.ops()
        .iter()
        .map(|op| match op.mnemonic() {
            "rotate" => 0,
            "mul" => 1,
            "rescale" | "downscale" | "modswitch" | "upscale" => 2,
            _ => 3,
        })
        .collect()
}

/// Per-op time of one execution summed by op kind, named: the shape
/// `Recorder::synthesize_children` takes.
pub fn us_by_kind(op_us: &[f64], kinds: &[usize]) -> [(&'static str, f64); 4] {
    let mut out = KIND_NAMES.map(|name| (name, 0.0));
    for (us, &k) in op_us.iter().zip(kinds) {
        out[k].1 += us;
    }
    out
}

/// One timed unit of work (an execution, a compile pass, a request or a
/// packed round).
#[derive(Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    /// Whether the recorder was on for it (traced runs switch it on for
    /// every other unit).
    pub traced: bool,
}

/// What the backend layer did, from direct `ExecEngine` calls.
#[derive(Default)]
pub struct BackendObs {
    pub engine_new_ms: Vec<f64>,
    /// Wall time of each `execute_sequential`, and its `total_us`.
    pub wall_ms: Vec<f64>,
    pub total_us: Vec<f64>,
    /// Op time per execution, by kind.
    pub kind_us: [Vec<f64>; 4],
    pub peak_bytes: usize,
    /// The executed plan's estimated latency.
    pub est_us: f64,
}

impl BackendObs {
    pub fn merge(&mut self, other: BackendObs) {
        self.engine_new_ms.extend(other.engine_new_ms);
        self.wall_ms.extend(other.wall_ms);
        self.total_us.extend(other.total_us);
        for (mine, theirs) in self.kind_us.iter_mut().zip(other.kind_us) {
            mine.extend(theirs);
        }
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
        self.est_us = other.est_us;
    }

    pub fn record_run(&mut self, wall_ms: f64, run: &EncryptedRun, kinds: &[usize]) {
        self.wall_ms.push(wall_ms);
        self.total_us.push(run.total_us);
        for (k, (_, us)) in us_by_kind(&run.op_us, kinds).iter().enumerate() {
            self.kind_us[k].push(*us);
        }
        self.peak_bytes = self.peak_bytes.max(run.peak_bytes);
    }
}

/// What the runtime layer did, from replies and `Runtime::stats()` deltas.
#[derive(Default, Clone)]
pub struct RuntimeObs {
    /// Client wall time of cache hits, and wall − `run.total_us` of each.
    pub hit_ms: Vec<f64>,
    pub hit_overhead_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    pub compiles: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub batches_executed: u64,
    /// Replies that shared a ciphertext four ways, of all replies.
    pub occupancy4: u64,
    pub replies: u64,
}

impl RuntimeObs {
    pub fn record_reply(&mut self, wall_ms: f64, total_us: f64, cache_hit: bool, occupancy: usize) {
        self.replies += 1;
        self.occupancy4 += u64::from(occupancy == 4);
        if cache_hit {
            self.hit_ms.push(wall_ms);
            self.hit_overhead_ms.push(wall_ms - total_us / 1e3);
        } else {
            self.miss_ms.push(wall_ms);
        }
    }

    pub fn merge(&mut self, other: RuntimeObs) {
        self.hit_ms.extend(other.hit_ms);
        self.hit_overhead_ms.extend(other.hit_overhead_ms);
        self.miss_ms.extend(other.miss_ms);
        self.compiles += other.compiles;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.batches_executed += other.batches_executed;
        self.occupancy4 += other.occupancy4;
        self.replies += other.replies;
    }

    /// Takes the counter deltas between two stats snapshots.
    pub fn take_stats(
        &mut self,
        before: &hecate_runtime::StatsSnapshot,
        after: &hecate_runtime::StatsSnapshot,
    ) {
        self.compiles = after.compiles - before.compiles;
        self.cache_hits = after.cache_hits - before.cache_hits;
        self.cache_misses = after.cache_misses - before.cache_misses;
        self.cache_evictions = after.cache_evictions - before.cache_evictions;
        self.batches_executed = after.batches_executed - before.batches_executed;
    }
}

/// The measured window of one workload run, or one part of it.
#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    /// Units completed, for throughput (requests on serve workloads,
    /// otherwise one per sample).
    pub units: u64,
    pub tally: Tally,
    pub backend: Option<BackendObs>,
    pub runtime: Option<RuntimeObs>,
    /// Hecate compile time per program per pass (compile-paper8).
    pub compile_ms: BTreeMap<&'static str, Vec<f64>>,
}

impl Window {
    /// Appends the part of the window measured on another set-up.
    pub fn merge(&mut self, other: Window) {
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
        self.units += other.units;
        self.tally.merge(other.tally);
        match (&mut self.backend, other.backend) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
        match (&mut self.runtime, other.runtime) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
        for (name, ms) in other.compile_ms {
            self.compile_ms.entry(name).or_default().extend(ms);
        }
    }
}
