//! Encrypted execution of compiled programs on the RNS-CKKS backend.
//!
//! The executor lowers a [`CompiledProgram`] onto [`hecate_ckks`]: it
//! builds the selected parameter set, generates exactly the evaluation
//! keys the program needs, encrypts the inputs, interprets the IR with
//! per-operation wall-clock timing, and decrypts the outputs.
//!
//! [`ExecEngine`] holds the expensive per-program setup (parameters, key
//! generation, evaluation keys) and is shared by reference; every method
//! takes `&self`. **One driver**, [`execute`], runs every encrypted
//! execution in the workspace — the CLI, audits, solo and packed serving,
//! the benches:
//!
//! - **Lowering.** The engine lowers the plan once ([`Lowering`]): keys,
//!   physical rotation steps, hoist roles and `exec-op` cost labels all
//!   come from it, so the executor runs what the estimator priced.
//! - **Ready set.** The SSA arena, plus an edge from each hoist leader to
//!   each of its followers, *is* the dependence DAG (its shape is built
//!   once per engine). Operations whose in-edges are all done sit in a
//!   min-heap on op index; workers pop, run the kernel, publish the value
//!   (and a leader's decomposition beside it), and push the ops that
//!   became ready. With one worker the pop order is exactly SSA order (op
//!   `k` is ready once `0..k` are done, and nothing smaller is left), so
//!   liveness peaks and ledger order are those of a plain sequential walk.
//!   A leader precedes its followers, so each hoist group decomposes once.
//! - **Workers.** The caller is always worker 0; `jobs − 1` scoped
//!   helpers ([`hecate_math::par::run_scoped`]) join it, so `jobs = 1`
//!   spawns nothing. All scheduling state sits behind one mutex — ops run
//!   for tens of microseconds to milliseconds, the lock is held for
//!   bookkeeping only.
//! - **Tenants.** A run serves `engine.occupancy()` tenants packed into
//!   disjoint slot blocks of each ciphertext; solo execution is the
//!   one-tenant case (one block spanning every slot is exactly
//!   replication, and its contamination reach is empty).
//! - **Determinism.** Randomness is confined to key generation (engine
//!   construction) and input encryption, which happens on the caller in
//!   operation order from a fresh [`Encryptor`] seeded with `seed + 1`
//!   before any op is scheduled. Every homomorphic kernel is a
//!   deterministic function of its operands, so the DAG's fixpoint is
//!   bit-identical at every worker count and interleaving.
//! - **Noise.** One [`NoiseLedger`] per run, advanced in completion order
//!   (always topological); the `max_rms` guard reads the ledger's RMS.
//!
//! Two conventions matter:
//!
//! - **Nominal scales.** Compiler scales are nominal log2 bits. After each
//!   `rescale`, the actual scale differs from nominal by
//!   `S_f − log2(q_dropped)` (a ~2⁻²⁰ relative offset); the executor
//!   re-declares the nominal scale, exactly as EVA does on SEAL, and the
//!   offset is absorbed into the measured error.
//! - **Replication.** A program with logical vector width `w` runs on a
//!   ring with `N/2 ≥ w` slots by replicating every input and constant
//!   `N/2 / w` times. Cyclic rotation of a periodic vector rotates every
//!   window, so IR rotation semantics are preserved for any power-of-two
//!   `w` dividing the slot count.

use crate::fault::FaultPlan;
use crate::noise::NoiseLedger;
use hecate_ckks::encoder::EncodeError;
use hecate_ckks::eval::EvalError;
use hecate_ckks::params::ParamsError;
use hecate_ckks::{
    Ciphertext, CkksEncoder, CkksParams, Decryptor, Encryptor, EvalKeys, Evaluator, HoistedDecomp,
    KeyGenerator, Plaintext, PublicKey,
};
use hecate_compiler::{CompiledProgram, HoistRole, Lowering};
use hecate_ir::{Op, ValueId};
use hecate_math::par;
use hecate_telemetry::trace;
use hecate_telemetry::{Counter, Gauge, Histogram};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// A cooperative cancellation handle the executors poll between
/// operations.
///
/// Homomorphic kernels run for tens of microseconds to milliseconds, so
/// per-op polling bounds how long a cancelled (or deadline-expired) run
/// keeps burning cores without requiring kernels to be interruptible.
/// The token trips either explicitly ([`CancelToken::cancel`]) or
/// implicitly once its deadline passes; both surface as
/// [`ExecError::Cancelled`] from the run.
///
/// Cloning shares the underlying flag: any clone can cancel every
/// holder.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only trips when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that trips automatically once `deadline` passes (and can
    /// still be cancelled explicitly before then).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Trips the token; every executor sharing it stops at its next
    /// between-ops poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been cancelled or its deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The deadline this token trips at, if it carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// Backend execution options.
#[derive(Debug, Clone)]
pub struct BackendOptions {
    /// Run at this ring degree instead of the compiled (security-selected)
    /// one — the reduced-scale mode used by default in the benchmark
    /// harness.
    pub degree_override: Option<usize>,
    /// Seed for key generation and encryption randomness.
    pub seed: u64,
    /// Runtime guards (metadata checks, representation validation, noise
    /// monitoring).
    pub guard: GuardOptions,
    /// Fault to inject, for testing the guards. `None` in normal runs.
    pub fault: Option<FaultPlan>,
    /// Scoped threads for the per-limb kernel inner loops of each
    /// homomorphic op (`1` = serial). Results are bit-identical at every
    /// job count.
    pub kernel_jobs: usize,
    /// Slot-batching occupancy: how many tenants share each ciphertext
    /// (and how many input bindings every [`execute`] call on the engine
    /// takes). `1` (the default) is solo execution. Values ≥ 2 must be
    /// powers of two and carve the slots into per-tenant blocks sized by
    /// the plan's slot footprint; rotations then run in packed mode (see
    /// [`hecate_compiler::lowering::physical_step`]).
    pub batch_occupancy: usize,
}

impl Default for BackendOptions {
    fn default() -> Self {
        BackendOptions {
            degree_override: None,
            seed: 0xC0FFEE,
            guard: GuardOptions::default(),
            fault: None,
            kernel_jobs: 1,
            batch_occupancy: 1,
        }
    }
}

/// Which runtime guards the executor runs after every operation.
#[derive(Debug, Clone)]
pub struct GuardOptions {
    /// Check each ciphertext's declared scale, level, and RNS prefix
    /// against the compiled plan's types (cheap; on by default).
    pub metadata_checks: bool,
    /// Scan every residue row of each result for values outside its
    /// prime's range (an `O(N·prefix)` pass per op; off by default).
    pub validate_repr: bool,
    /// Abort with [`ExecError::BudgetExhausted`] once the run ledger's
    /// modeled RMS noise of any value exceeds this bound. `None` disables
    /// the check (the ledger itself always runs).
    pub max_rms: Option<f64>,
}

impl Default for GuardOptions {
    fn default() -> Self {
        GuardOptions {
            metadata_checks: true,
            validate_repr: false,
            max_rms: None,
        }
    }
}

/// Guards with everything enabled (as the fault-injection suite runs).
impl GuardOptions {
    /// All guards on, with the given noise budget (RMS bound).
    pub fn strict(max_rms: f64) -> Self {
        GuardOptions {
            metadata_checks: true,
            validate_repr: true,
            max_rms: Some(max_rms),
        }
    }
}

/// Errors from encrypted execution.
#[derive(Debug)]
pub enum ExecError {
    /// Parameter construction failed.
    Params(ParamsError),
    /// Encoding failed.
    Encode(EncodeError),
    /// A homomorphic operation failed (indicates a compiler bug).
    Eval {
        /// The operation index.
        at: usize,
        /// The underlying evaluator error.
        source: EvalError,
    },
    /// The program's vector width does not fit or divide the slot count.
    BadVectorWidth {
        /// Logical width.
        vec_size: usize,
        /// Available slots.
        slots: usize,
    },
    /// An input binding is missing.
    MissingInput {
        /// The unbound name.
        name: String,
    },
    /// An input binding holds more elements than the program's declared
    /// vector width. Silently truncating (the old behavior) would drop
    /// user data; shorter inputs are still zero-padded.
    InputTooLong {
        /// The offending binding.
        name: String,
        /// Elements supplied.
        len: usize,
        /// The program's declared vector width.
        vec_size: usize,
    },
    /// A runtime guard found ciphertext state inconsistent with the
    /// compiled plan (wrong scale/level/prefix or an invalid residue).
    Guard {
        /// The operation index at which the check failed.
        at: usize,
        /// What was inconsistent.
        detail: String,
    },
    /// The noise monitor saw the budget run out: decryption would no
    /// longer recover the plaintext within the configured error bound.
    BudgetExhausted {
        /// The operation index at which the budget was exceeded.
        at: usize,
        /// Log2 bits by which the tracked RMS noise exceeds the budget.
        deficit: f64,
    },
    /// The run's [`CancelToken`] tripped (explicit cancellation or an
    /// expired deadline); remaining work was abandoned between ops.
    Cancelled {
        /// The operation index at which the cancellation was observed.
        at: usize,
    },
    /// The requested slot-batching occupancy cannot be realized: it is
    /// not a power of two, the plan's slot footprint does not fit the
    /// per-tenant block at this ring degree, or a run was handed a tenant
    /// count other than the engine's occupancy.
    BatchUnsupported {
        /// The requested occupancy (or offered tenant count).
        occupancy: usize,
        /// Slots available per tenant block at this occupancy.
        block: usize,
        /// Slots one tenant needs (`back + width + fwd`).
        needed: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Params(e) => write!(f, "parameter error: {e}"),
            ExecError::Encode(e) => write!(f, "encode error: {e}"),
            ExecError::Eval { at, source } => write!(f, "evaluation error at op {at}: {source}"),
            ExecError::BadVectorWidth { vec_size, slots } => {
                write!(f, "vector width {vec_size} incompatible with {slots} slots")
            }
            ExecError::MissingInput { name } => write!(f, "no binding for input '{name}'"),
            ExecError::InputTooLong {
                name,
                len,
                vec_size,
            } => {
                write!(
                    f,
                    "input '{name}' has {len} elements but the program's vector width is {vec_size}"
                )
            }
            ExecError::Guard { at, detail } => {
                write!(f, "runtime guard tripped at op {at}: {detail}")
            }
            ExecError::BudgetExhausted { at, deficit } => {
                write!(
                    f,
                    "noise budget exhausted at op {at} ({deficit:.1} bits over)"
                )
            }
            ExecError::Cancelled { at } => {
                write!(f, "execution cancelled at op {at} (deadline or shed)")
            }
            ExecError::BatchUnsupported {
                occupancy,
                block,
                needed,
            } => {
                write!(
                    f,
                    "batch occupancy {occupancy} unsupported: footprint needs {needed} slots \
                     per tenant but the block holds {block}"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ParamsError> for ExecError {
    fn from(e: ParamsError) -> Self {
        ExecError::Params(e)
    }
}

impl From<EncodeError> for ExecError {
    fn from(e: EncodeError) -> Self {
        ExecError::Encode(e)
    }
}

/// The result of one encrypted run, as seen by one tenant. Tenants packed
/// into the same run share everything but `outputs`.
#[derive(Debug)]
pub struct EncryptedRun {
    /// This tenant's decrypted, demultiplexed outputs (`vec_size` slots).
    pub outputs: HashMap<String, Vec<f64>>,
    /// Total homomorphic execution time, microseconds (setup, encryption,
    /// and decryption excluded — matching the paper's latency metric).
    /// The sum of `op_us`, so it counts kernel time, not wall time, when
    /// several workers overlap.
    pub total_us: f64,
    /// Per-operation time, microseconds (zero for non-runtime ops).
    pub op_us: Vec<f64>,
    /// Peak number of simultaneously live ciphertexts. Values are freed
    /// when their last consumer finishes (the paper's SEAL dialect
    /// optimizes memory the same way); with more than one worker the peak
    /// depends on the interleaving.
    pub peak_live: usize,
    /// Peak ciphertext working set in bytes, under the same release rule.
    pub peak_bytes: usize,
    /// Ring degree used.
    pub degree: usize,
    /// Chain length used.
    pub chain_len: usize,
    /// Tightest scale-vs-waterline margin (bits) across every executed
    /// cipher operation, from the run's [`NoiseLedger`]. Infinite when the
    /// program produced no ciphertexts.
    pub min_margin_bits: f64,
}

enum Val {
    Free(Vec<f64>),
    Plain(Plaintext),
    Cipher(Ciphertext),
}

/// The runtime value of one IR operation: a free vector, an encoded
/// plaintext, or a ciphertext. Opaque to callers: the audit's
/// [`OpObserver`] reads one by demultiplexing it through the engine.
pub struct OpValue(Val);

impl OpValue {
    /// Whether this value is a ciphertext (the only kind that occupies
    /// ciphertext working-set memory).
    pub fn is_cipher(&self) -> bool {
        matches!(self.0, Val::Cipher(_))
    }

    /// Bytes this value contributes to the ciphertext working set.
    fn cipher_bytes(&self, degree: usize) -> usize {
        match &self.0 {
            Val::Cipher(c) => 2 * c.prefix() * degree * std::mem::size_of::<u64>(),
            _ => 0,
        }
    }
}

/// Builds the [`CkksParams`] a compiled program calls for.
///
/// # Errors
/// Propagates parameter-construction failures.
pub fn build_params(
    prog: &CompiledProgram,
    opts: &BackendOptions,
) -> Result<CkksParams, ExecError> {
    let degree = opts.degree_override.unwrap_or(prog.params.degree);
    Ok(CkksParams::new(
        degree,
        prog.params.q0_bits.clamp(24, 60),
        prog.params.sf_bits,
        prog.params.chain_len - 1,
        false,
    )?)
}

/// Replicates a logical vector across the slot count. Shorter data is
/// zero-padded to `vec_size`; longer data is rejected by the caller via
/// [`ExecError::InputTooLong`] — cycling it into the window would
/// silently drop elements.
fn replicate(data: &[f64], vec_size: usize, slots: usize) -> Vec<f64> {
    debug_assert!(data.len() <= vec_size, "caller validates input length");
    let mut window = data.to_vec();
    window.resize(vec_size, 0.0);
    let mut out = Vec::with_capacity(slots);
    while out.len() < slots {
        out.extend_from_slice(&window);
    }
    out.truncate(slots);
    out
}

/// A reusable encrypted-execution engine for one compiled program.
///
/// Construction performs all per-program setup: parameter building, key
/// generation, and one evaluation key per relinearization or rotation
/// target the program uses. After that, every method takes `&self` — a
/// single engine can serve any number of
/// sequential or concurrent [`execute`] runs, which is what the
/// `hecate-runtime` session manager relies on (one engine per session ×
/// plan, shared across worker threads).
///
/// Randomness discipline: key generation consumes `seed`; each run
/// creates a fresh [`Encryptor`] seeded with `seed + 1` and encrypts
/// inputs in operation order. Homomorphic kernels are deterministic, so
/// two runs over the same inputs produce bit-identical ciphertexts and
/// outputs no matter how operations are scheduled after that.
pub struct ExecEngine {
    prog: Arc<CompiledProgram>,
    params: CkksParams,
    encoder: CkksEncoder,
    eval: Evaluator,
    decryptor: Decryptor,
    pk: PublicKey,
    guard: GuardOptions,
    fault: Option<FaultPlan>,
    chain_len: usize,
    slots: usize,
    vec_size: usize,
    sf: f64,
    seed: u64,
    /// Slot-batching occupancy (1 = solo). Fixed at engine build: it
    /// determines key generation, the physical rotation mapping, and the
    /// packed input/output layout.
    occupancy: usize,
    /// Slots per tenant block (`slots / occupancy`).
    block: usize,
    /// Per-op contamination reach `(back, fwd)` under packed execution;
    /// empty for solo engines (one block has no neighbour to smear in).
    reaches: Vec<(usize, usize)>,
    /// The plan lowered at this engine's slots and occupancy: per-op cost
    /// labels, physical rotation steps and hoist roles.
    lowering: Lowering,
    /// The DAG shape, fixed by the plan: the ops each op unblocks (one
    /// per operand instance, plus a hoist leader's followers), the edges
    /// entering each op, and each value's uses (+1 for an output, never
    /// released, so outputs survive the run).
    users: Vec<Vec<usize>>,
    indegree: Vec<usize>,
    uses: Vec<usize>,
    // Cached global-metric handles: the hot path never takes the registry lock.
    ops_counter: Counter,
    op_us_hist: Histogram,
    // Cached handles into the global `hecate_precision_*` metric family.
    precision_ops: Counter,
    precision_margin_gauge: Gauge,
}

impl ExecEngine {
    /// Builds parameters and all required keys for `prog`.
    ///
    /// # Errors
    /// Returns [`ExecError`] on parameter failures or an incompatible
    /// vector width.
    pub fn new(prog: Arc<CompiledProgram>, opts: &BackendOptions) -> Result<ExecEngine, ExecError> {
        let params = build_params(&prog, opts)?;
        let slots = params.slots();
        let vec_size = prog.func.vec_size;
        if vec_size > slots || !vec_size.is_power_of_two() {
            return Err(ExecError::BadVectorWidth { vec_size, slots });
        }
        let occupancy = opts.batch_occupancy.max(1);
        let block = slots / occupancy;
        let mut reaches = Vec::new();
        if occupancy > 1 {
            reaches = hecate_ir::slot_reaches(&prog.func);
            let needed = reaches
                .iter()
                .map(|&(b, f)| b + vec_size + f)
                .max()
                .unwrap_or(vec_size);
            let fits = occupancy.is_power_of_two()
                && occupancy * block == slots
                && block.is_multiple_of(vec_size)
                && needed <= block;
            if !fits {
                return Err(ExecError::BatchUnsupported {
                    occupancy,
                    block,
                    needed,
                });
            }
        }
        let chain_len = params.basis().chain_len();
        let encoder = CkksEncoder::new(&params);
        let mut kg = KeyGenerator::new(&params, opts.seed);
        let pk = kg.public_key();
        let lowering = Lowering::new(&prog.func, &prog.types, chain_len, slots, occupancy);
        let (mut relin, rot) = lowering.key_requirements();
        if matches!(opts.fault, Some(FaultPlan::SkipRelin)) {
            relin.clear();
        }
        let keys = EvalKeys::generate(&mut kg, &relin, &rot);
        let decryptor = Decryptor::new(&params, kg.secret_key().clone());
        let mut eval = Evaluator::new(&params, keys);
        eval.set_kernel_jobs(opts.kernel_jobs);
        let sf = prog.cfg.rescale_bits;
        let n = prog.func.len();
        let (mut users, mut indegree, mut uses) = (vec![Vec::new(); n], vec![0; n], vec![0; n]);
        for (i, (op, lowered)) in prog.func.ops().iter().zip(lowering.ops()).enumerate() {
            for v in op.operands() {
                users[v.index()].push(i);
                indegree[i] += 1;
                uses[v.index()] += 1;
            }
            if let Some((_, HoistRole::Follower { leader })) = lowered.rotation {
                users[leader].push(i);
                indegree[i] += 1;
            }
        }
        for (_, v) in prog.func.outputs() {
            uses[v.index()] += 1;
        }
        let registry = hecate_telemetry::metrics::global();
        let ops_counter = registry.counter("hecate_exec_ops_total");
        let op_us_hist = registry.histogram("hecate_exec_op_us", 24);
        let precision_ops = registry.counter("hecate_precision_ops_total");
        let precision_margin_gauge = registry.gauge("hecate_precision_min_margin_millibits");
        Ok(ExecEngine {
            prog,
            params,
            encoder,
            eval,
            decryptor,
            pk,
            guard: opts.guard.clone(),
            fault: opts.fault.clone(),
            chain_len,
            slots,
            vec_size,
            sf,
            seed: opts.seed,
            occupancy,
            block,
            reaches,
            lowering,
            users,
            indegree,
            uses,
            ops_counter,
            op_us_hist,
            precision_ops,
            precision_margin_gauge,
        })
    }

    /// The compiled program this engine executes.
    pub fn prog(&self) -> &Arc<CompiledProgram> {
        &self.prog
    }

    /// Ring degree in use (possibly overridden below the secure degree).
    pub fn degree(&self) -> usize {
        self.params.degree()
    }

    /// Modulus-chain length in use.
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// Slot-batching occupancy this engine was built for (1 = solo).
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// The plan lowered at this engine's slots and occupancy.
    pub(crate) fn lowering(&self) -> &Lowering {
        &self.lowering
    }

    /// Folds one finished run's ledger into the global
    /// `hecate_precision_*` metric family: bumps the recorded-op counter
    /// and publishes the run's tightest margin (millibits, so the integer
    /// gauge keeps three decimal places).
    fn publish_precision(&self, ledger: &NoiseLedger) {
        self.precision_ops.add(ledger.entries().len() as u64);
        let min = ledger.min_margin_bits();
        if min.is_finite() {
            self.precision_margin_gauge.set((min * 1000.0) as i64);
        }
    }

    fn encode_replicated(
        &self,
        name: &str,
        data: &[f64],
        scale: f64,
        level: usize,
    ) -> Result<Plaintext, ExecError> {
        if data.len() > self.vec_size {
            return Err(ExecError::InputTooLong {
                name: name.to_string(),
                len: data.len(),
                vec_size: self.vec_size,
            });
        }
        let rep = replicate(data, self.vec_size, self.slots);
        let mut pt = self.encoder.encode(&rep, scale, level)?;
        // Plaintexts are prepared ahead of execution in NTT form, as SEAL
        // does, so ct⊙pt operations cost a pointwise pass only.
        pt.poly.to_ntt(self.params.basis());
        Ok(pt)
    }

    /// Encrypts one run's input bindings, producing a value table with
    /// exactly the `input` operation slots filled. Tenant `b`'s vector
    /// tiles slot block `b` (the layout of [`hecate_ckks::pack_blocks`],
    /// which restricted to one block equals replication — so replicated
    /// plaintext constants act correctly on every tenant at once, and the
    /// solo case is one block spanning every slot). Inputs are encrypted
    /// in operation order from a fresh seeded encryptor, so the
    /// ciphertexts are identical across runs and independent of
    /// downstream scheduling.
    fn encrypt_inputs(
        &self,
        tenants: &[&HashMap<String, Vec<f64>>],
    ) -> Result<Vec<Option<OpValue>>, ExecError> {
        if tenants.len() != self.occupancy {
            return Err(ExecError::BatchUnsupported {
                occupancy: tenants.len(),
                block: self.block,
                needed: self.vec_size,
            });
        }
        let mut encryptor =
            Encryptor::new(&self.params, self.pk.clone(), self.seed.wrapping_add(1));
        let mut vals: Vec<Option<OpValue>> = Vec::with_capacity(self.prog.func.len());
        for (i, op) in self.prog.func.ops().iter().enumerate() {
            vals.push(match op {
                Op::Input { name } => {
                    let mut per_tenant = Vec::with_capacity(self.occupancy);
                    for inputs in tenants {
                        let data = inputs
                            .get(name)
                            .ok_or_else(|| ExecError::MissingInput { name: name.clone() })?;
                        if data.len() > self.vec_size {
                            return Err(ExecError::InputTooLong {
                                name: name.clone(),
                                len: data.len(),
                                vec_size: self.vec_size,
                            });
                        }
                        per_tenant.push(data.clone());
                    }
                    let packed = hecate_ckks::pack_blocks(
                        &per_tenant,
                        self.vec_size,
                        self.block,
                        self.slots,
                    );
                    let scale = self.prog.types[i].scale().expect("cipher input");
                    let mut pt = self.encoder.encode(&packed, scale, 0)?;
                    pt.poly.to_ntt(self.params.basis());
                    Some(OpValue(Val::Cipher(encryptor.encrypt(&pt))))
                }
                _ => None,
            });
        }
        Ok(vals)
    }

    /// How many clean copies of its logical vector each tenant's block
    /// holds in the value of operation `i`: packing tiles the vector
    /// across the block and a global rotation shifts every copy alike, so
    /// each copy outside the op's contamination reach is an independent
    /// noise sample of the same logical value. The batched audit measures
    /// probe RMS over all of them, which keeps per-probe sampling
    /// variance comparable to a solo audit's despite the narrower blocks;
    /// a solo audit keeps sampling the one window its thresholds were
    /// validated against.
    pub(crate) fn clean_copies(&self, i: usize) -> usize {
        if self.occupancy == 1 {
            return 1;
        }
        let (back, fwd) = self.reaches[i];
        // Feasibility (checked at engine build) guarantees at least one.
        (self.block - back - fwd) / self.vec_size
    }

    /// Decrypts (or decodes) the value produced by operation `i` and
    /// demultiplexes it into one vector per tenant: the first `copies`
    /// windows of each tenant's block past the op's backward
    /// contamination reach, realigned in plaintext and concatenated.
    /// Program outputs are `copies = 1`; `copies` must not exceed
    /// [`ExecEngine::clean_copies`]. Reading never mutates the value, so
    /// an observed run stays bit-identical.
    pub(crate) fn demux(&self, value: &OpValue, i: usize, copies: usize) -> Vec<Vec<f64>> {
        let decoded = match &value.0 {
            Val::Cipher(c) => self.encoder.decode(&self.decryptor.decrypt(c)),
            Val::Plain(p) => self.encoder.decode(p),
            Val::Free(d) => return vec![d.clone(); self.occupancy],
        };
        let back = self.reaches.get(i).map_or(0, |&(b, _)| b);
        (0..self.occupancy)
            .map(|b| {
                (0..copies)
                    .flat_map(|c| {
                        hecate_ckks::unpack_block(
                            &decoded,
                            b * self.block + c * self.vec_size,
                            back,
                            self.vec_size,
                        )
                    })
                    .collect()
            })
            .collect()
    }

    /// Executes operation `i` given its operand values (in
    /// [`Op::operands`] order), then applies fault injection and guards.
    /// Returns the value, the homomorphic kernel time in microseconds
    /// (zero for setup-only operations), and any injected noise variance
    /// for the run's ledger. `hoisted` is the operand's decomposition: a
    /// hoist follower reads it, a hoist leader fills it. `input`
    /// operations are handled by [`ExecEngine::encrypt_inputs`] and
    /// [`ExecEngine::admit_value`], not here.
    fn exec_op(
        &self,
        i: usize,
        operands: &[&OpValue],
        hoisted: &mut Option<Arc<HoistedDecomp>>,
    ) -> Result<(OpValue, f64, f64), ExecError> {
        let lowered = &self.lowering.ops()[i];
        let mut span = trace::span_with("exec-op", || {
            vec![
                ("i", i.into()),
                ("op", self.prog.func.ops()[i].mnemonic().into()),
                ("cost_op", lowered.label().into()),
                ("level", lowered.operand_level.into()),
                ("active_primes", lowered.active_primes.into()),
            ]
        });
        let (value, us) = self.compute(i, operands, hoisted)?;
        span.attr("us", us.into());
        if !lowered.cost_ops.is_empty() {
            self.ops_counter.inc();
            self.op_us_hist.observe(us as u64);
        }
        let mut value = OpValue(value);
        let injected_var = self.inject_fault(i, &mut value);
        self.check_guards(i, &value)?;
        Ok((value, us, injected_var))
    }

    /// Applies fault injection and guards to an encrypted input, exactly
    /// as a computed value would be. Returns the injected noise variance.
    fn admit_value(&self, i: usize, value: &mut OpValue) -> Result<f64, ExecError> {
        let injected_var = self.inject_fault(i, value);
        self.check_guards(i, value)?;
        Ok(injected_var)
    }

    fn compute(
        &self,
        i: usize,
        operands: &[&OpValue],
        hoisted: &mut Option<Arc<HoistedDecomp>>,
    ) -> Result<(Val, f64), ExecError> {
        let prog = &self.prog;
        let op = &prog.func.ops()[i];
        let ty = prog.types[i];
        let eval = &self.eval;
        let eval_err = |source: EvalError| ExecError::Eval { at: i, source };
        let mut us = 0.0f64;
        let value = match op {
            Op::Input { .. } => unreachable!("inputs are encrypted before scheduling"),
            Op::Const { data } => Val::Free((0..self.vec_size).map(|k| data.at(k)).collect()),
            Op::Encode {
                scale_bits, level, ..
            } => {
                let Val::Free(data) = &operands[0].0 else {
                    unreachable!("encode takes a free operand");
                };
                Val::Plain(self.encode_replicated("<const>", data, *scale_bits, *level)?)
            }
            Op::ModSwitch(v) | Op::Upscale { value: v, .. } if prog.types[v.index()].is_plain() => {
                // Plaintext scale management is symbolic: re-encode the
                // underlying data at the new (scale, level).
                let data = self.plain_source_data(*v);
                Val::Plain(self.encode_replicated(
                    "<const>",
                    &data,
                    ty.scale().expect("plain"),
                    ty.level().expect("plain"),
                )?)
            }
            Op::Add(..) | Op::Sub(..) => {
                let t0 = Instant::now();
                let out = match (&operands[0].0, &operands[1].0) {
                    (Val::Cipher(ca), Val::Cipher(cb)) => {
                        if matches!(op, Op::Add(..)) {
                            eval.add(ca, cb).map_err(eval_err)?
                        } else {
                            eval.sub(ca, cb).map_err(eval_err)?
                        }
                    }
                    (Val::Cipher(ca), Val::Plain(pb)) => {
                        if matches!(op, Op::Add(..)) {
                            eval.add_plain(ca, pb).map_err(eval_err)?
                        } else {
                            let mut neg = ca.clone();
                            neg = eval.negate(&neg);
                            let s = eval.add_plain(&neg, pb).map_err(eval_err)?;
                            eval.negate(&s)
                        }
                    }
                    (Val::Plain(pa), Val::Cipher(cb)) => {
                        if matches!(op, Op::Add(..)) {
                            eval.add_plain(cb, pa).map_err(eval_err)?
                        } else {
                            // pa − cb = −(cb − pa)
                            let s = eval.negate(cb);
                            eval.add_plain(&s, pa).map_err(eval_err)?
                        }
                    }
                    _ => unreachable!("binary op on free operands"),
                };
                us = t0.elapsed().as_secs_f64() * 1e6;
                Val::Cipher(out)
            }
            Op::Mul(..) => {
                let t0 = Instant::now();
                let out = match (&operands[0].0, &operands[1].0) {
                    (Val::Cipher(ca), Val::Cipher(cb)) => eval.mul(ca, cb).map_err(eval_err)?,
                    (Val::Cipher(ca), Val::Plain(pb)) => {
                        eval.mul_plain(ca, pb).map_err(eval_err)?
                    }
                    (Val::Plain(pa), Val::Cipher(cb)) => {
                        eval.mul_plain(cb, pa).map_err(eval_err)?
                    }
                    _ => unreachable!("binary op on free operands"),
                };
                us = t0.elapsed().as_secs_f64() * 1e6;
                Val::Cipher(out)
            }
            Op::Negate(..) => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("negate on cipher")
                };
                let t0 = Instant::now();
                let out = eval.negate(c);
                us = t0.elapsed().as_secs_f64() * 1e6;
                Val::Cipher(out)
            }
            Op::Rotate { value, .. } => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("rotate on cipher")
                };
                let (s, role) = self.lowering.ops()[i]
                    .rotation
                    .expect("rotations are lowered");
                let t0 = Instant::now();
                let out = match role {
                    HoistRole::Lone => eval.rotate(c, s),
                    HoistRole::Leader => {
                        let mut span = trace::span_with("hoist-decompose", || {
                            vec![
                                ("value", value.index().into()),
                                ("active_primes", c.prefix().into()),
                            ]
                        });
                        let hd = hoisted.insert(Arc::new(eval.hoist(c)));
                        span.attr("us", (t0.elapsed().as_secs_f64() * 1e6).into());
                        drop(span);
                        eval.rotate_hoisted(c, hd, s)
                    }
                    HoistRole::Follower { .. } => {
                        eval.rotate_hoisted(c, hoisted.as_ref().expect("the leader ran first"), s)
                    }
                }
                .map_err(eval_err)?;
                us = t0.elapsed().as_secs_f64() * 1e6;
                Val::Cipher(out)
            }
            Op::Rescale(..) => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("rescale on cipher")
                };
                if matches!(self.fault, Some(FaultPlan::DropRescale { at }) if at == i) {
                    // Injected fault: the rescale never happens; the value
                    // passes through with level and scale unchanged.
                    Val::Cipher(c.clone())
                } else {
                    let t0 = Instant::now();
                    let mut out = eval.rescale(c).map_err(eval_err)?;
                    us = t0.elapsed().as_secs_f64() * 1e6;
                    // Nominal scale declaration (see module docs).
                    out.scale_bits = c.scale_bits - self.sf;
                    Val::Cipher(out)
                }
            }
            Op::ModSwitch(..) => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("cipher modswitch")
                };
                let t0 = Instant::now();
                let out = eval.mod_switch(c).map_err(eval_err)?;
                us = t0.elapsed().as_secs_f64() * 1e6;
                Val::Cipher(out)
            }
            Op::Upscale { target_bits, .. } => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("cipher upscale")
                };
                let delta = target_bits - c.scale_bits;
                let ones =
                    self.encode_replicated("<unit>", &vec![1.0; self.vec_size], delta, c.level)?;
                let t0 = Instant::now();
                let mut out = eval.mul_plain(c, &ones).map_err(eval_err)?;
                us = t0.elapsed().as_secs_f64() * 1e6;
                out.scale_bits = *target_bits;
                Val::Cipher(out)
            }
            Op::Downscale(..) => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("cipher downscale")
                };
                // Multiply by 1 at scale S_f + S_w − j, then rescale: the
                // scale lands exactly on the waterline (nominally).
                let target = prog.cfg.waterline;
                let delta = self.sf + target - c.scale_bits;
                let ones =
                    self.encode_replicated("<unit>", &vec![1.0; self.vec_size], delta, c.level)?;
                let t0 = Instant::now();
                let up = eval.mul_plain(c, &ones).map_err(eval_err)?;
                let mut out = eval.rescale(&up).map_err(eval_err)?;
                us = t0.elapsed().as_secs_f64() * 1e6;
                out.scale_bits = target;
                Val::Cipher(out)
            }
        };
        Ok((value, us))
    }

    fn inject_fault(&self, i: usize, value: &mut OpValue) -> f64 {
        let mut injected_var = 0.0;
        let basis = self.params.basis();
        if let (Some(fault), Val::Cipher(c)) = (&self.fault, &mut value.0) {
            match fault {
                FaultPlan::CorruptLimb { at, limb } if *at == i => {
                    // Stuck-limb model: write the prime itself — one past
                    // the valid residue range [0, p).
                    let row = *limb % c.c0.prefix();
                    let p = basis.prime(row);
                    c.c0.residue_mut(row)[0] = p;
                }
                FaultPlan::PerturbScale { at, delta_bits } if *at == i => {
                    c.scale_bits += delta_bits;
                }
                FaultPlan::ExhaustNoise { at } if *at == i => {
                    // Add the constant polynomial A = 2^(s+1) to c0: every
                    // decoded slot shifts by A / 2^s = 2.0. Real corruption
                    // — decryption without the guard returns garbage.
                    let amp = (2.0f64).powf((c.scale_bits + 1.0).min(62.0)) as u64;
                    let ntt = c.c0.is_ntt();
                    for row in 0..c.c0.prefix() {
                        let p = basis.prime(row);
                        let r = c.c0.residue_mut(row);
                        if ntt {
                            for x in r.iter_mut() {
                                *x = (*x + amp % p) % p;
                            }
                        } else {
                            r[0] = (r[0] + amp % p) % p;
                        }
                    }
                    injected_var = 4.0;
                }
                _ => {}
            }
        }
        injected_var
    }

    fn check_guards(&self, i: usize, value: &OpValue) -> Result<(), ExecError> {
        let basis = self.params.basis();
        if let (Val::Cipher(c), true) = (&value.0, self.guard.metadata_checks) {
            let ty = self.prog.types[i];
            let want_scale = ty.scale().unwrap_or(c.scale_bits);
            let want_level = ty.level().unwrap_or(c.level);
            if (c.scale_bits - want_scale).abs() > 1e-3 {
                return Err(ExecError::Guard {
                    at: i,
                    detail: format!(
                        "scale 2^{:.3} disagrees with compiled 2^{want_scale:.3}",
                        c.scale_bits
                    ),
                });
            }
            if c.level != want_level || c.prefix() != self.chain_len - want_level {
                return Err(ExecError::Guard {
                    at: i,
                    detail: format!(
                        "level {} / prefix {} disagree with compiled level {want_level} (chain {})",
                        c.level,
                        c.prefix(),
                        self.chain_len
                    ),
                });
            }
        }
        if let (Val::Cipher(c), true) = (&value.0, self.guard.validate_repr) {
            for poly in [&c.c0, &c.c1] {
                for row in 0..poly.prefix() {
                    let p = basis.prime(row);
                    if let Some(bad) = poly.residue(row).iter().find(|&&x| x >= p) {
                        return Err(ExecError::Guard {
                            at: i,
                            detail: format!("residue {bad} out of range for prime {p} (row {row})"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Recovers the broadcastable data behind a plain value (a chain of
    /// encode/modswitch/upscale over a constant).
    fn plain_source_data(&self, v: ValueId) -> Vec<f64> {
        let mut cur = v;
        loop {
            match self.prog.func.op(cur) {
                Op::Encode { value, .. } => cur = *value,
                Op::ModSwitch(x) | Op::Upscale { value: x, .. } => cur = *x,
                Op::Const { data } => {
                    return (0..self.prog.func.vec_size).map(|k| data.at(k)).collect();
                }
                other => unreachable!("plain chain hit {}", other.mnemonic()),
            }
        }
    }
}

/// Builds an engine for `prog` and runs it once, solo, on the calling
/// thread.
///
/// # Errors
/// Returns [`ExecError`] on parameter, key, input, or evaluator failures.
pub fn execute_encrypted(
    prog: &CompiledProgram,
    inputs: &HashMap<String, Vec<f64>>,
    opts: &BackendOptions,
) -> Result<EncryptedRun, ExecError> {
    let engine = ExecEngine::new(Arc::new(prog.clone()), opts)?;
    execute_sequential(&engine, inputs)
}

/// One solo run on the calling thread over an already-built engine
/// (setup amortized): [`execute`] with one tenant and one worker.
///
/// # Errors
/// Returns [`ExecError`] on input, evaluator, or guard failures.
pub fn execute_sequential(
    engine: &ExecEngine,
    inputs: &HashMap<String, Vec<f64>>,
) -> Result<EncryptedRun, ExecError> {
    let mut runs = execute(engine, &[inputs], 1, None, None)?;
    Ok(runs.pop().expect("one run per tenant"))
}

/// A per-op observer for audited runs, called once per executed operation
/// after fault injection and guards with `(op index, value, predicted
/// RMS)`. The predicted RMS is the run ledger's noise estimate for cipher
/// values (0 for plain/free values). Returning an error aborts the run.
/// Calls are serialized in completion order — SSA order with one worker.
pub type OpObserver<'a> = &'a mut (dyn FnMut(usize, &OpValue, f64) -> Result<(), ExecError> + Send);

/// Executes `engine`'s program once for `tenants.len()` tenants — which
/// must equal the engine's occupancy — on `jobs` workers, and returns one
/// [`EncryptedRun`] per tenant, in block order. See the module docs for
/// the scheduling, determinism, and noise-model contract.
///
/// `observer` is the audit hook: it only *reads* values (decryption does
/// not consume a ciphertext), so an observed run is bit-identical to an
/// unobserved one. `cancel` is polled before every op, so a timed-out or
/// shed run stops burning cores within one kernel.
///
/// # Errors
/// Returns [`ExecError`] on input, evaluator, guard, observer, or
/// cancellation failures — the first failure wins and remaining work is
/// abandoned — and [`ExecError::BatchUnsupported`] on a tenant-count
/// mismatch.
///
/// # Panics
/// A panic in a kernel or the observer stops every worker and then
/// propagates to the caller with its original payload.
pub fn execute(
    engine: &ExecEngine,
    tenants: &[&HashMap<String, Vec<f64>>],
    jobs: usize,
    observer: Option<OpObserver<'_>>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<EncryptedRun>, ExecError> {
    let jobs = jobs.max(1);
    let prog = &engine.prog;
    let n = prog.func.len();
    let mut span = trace::span_with("execute", || {
        vec![
            ("func", prog.func.name.as_str().into()),
            ("ops", n.into()),
            ("degree", engine.degree().into()),
            ("chain_len", engine.chain_len.into()),
            ("jobs", jobs.into()),
            ("occupancy", engine.occupancy.into()),
            ("est_us", prog.stats.estimated_latency_us.into()),
        ]
    });
    let inputs = engine.encrypt_inputs(tenants)?;

    let driver = Driver {
        engine,
        cancel,
        jobs,
        wake: Condvar::new(),
        state: Mutex::new(RunState {
            ready: (0..n)
                .filter(|&i| engine.indegree[i] == 0)
                .map(Reverse)
                .collect(),
            indegree: engine.indegree.clone(),
            uses: engine.uses.clone(),
            inputs,
            vals: vec![None; n],
            hoisted: vec![None; n],
            done: 0,
            stop: false,
            error: None,
            ledger: NoiseLedger::new(prog, engine.degree(), engine.occupancy),
            observer,
            op_us: vec![0.0; n],
            live_cipher: 0,
            peak_live: 0,
            live_bytes: 0,
            peak_bytes: 0,
        }),
    };
    // The correlation context is thread-local; re-establish it in each
    // helper so exec-op events keep the serving request's ids across the
    // thread hop. A helper's panic reaches the caller with its payload.
    let (ctx_req, ctx_batch) = trace::current_context();
    par::run_scoped(jobs, |_| {
        let _ctx = trace::push_context(ctx_req, ctx_batch);
        driver.work();
    });

    let state = driver
        .state
        .into_inner()
        .expect("a poisoned run already panicked out of the scope");
    if let Some(e) = state.error {
        return Err(e);
    }
    assert_eq!(
        state.done, n,
        "scheduler drained without completing the DAG"
    );

    let mut outputs: Vec<HashMap<String, Vec<f64>>> = vec![HashMap::new(); engine.occupancy];
    for (name, v) in prog.func.outputs() {
        let value = state.vals[v.index()]
            .as_ref()
            .expect("outputs are retained");
        for (t, data) in engine.demux(value, v.index(), 1).into_iter().enumerate() {
            outputs[t].insert(name.clone(), data);
        }
    }
    engine.publish_precision(&state.ledger);
    let total_us: f64 = state.op_us.iter().sum();
    let min_margin_bits = state.ledger.min_margin_bits();
    span.attr("total_us", total_us.into());
    span.attr("min_margin_bits", min_margin_bits.into());
    Ok(outputs
        .into_iter()
        .map(|outputs| EncryptedRun {
            outputs,
            total_us,
            op_us: state.op_us.clone(),
            peak_live: state.peak_live,
            peak_bytes: state.peak_bytes,
            degree: engine.degree(),
            chain_len: engine.chain_len,
            min_margin_bits,
        })
        .collect())
}

/// One run's scheduler: the engine (whose DAG shape it walks) plus the
/// mutable [`RunState`] every worker shares.
struct Driver<'a, 'o> {
    engine: &'a ExecEngine,
    cancel: Option<&'a CancelToken>,
    jobs: usize,
    state: Mutex<RunState<'o>>,
    /// Signalled whenever ops become ready or the run ends.
    wake: Condvar,
}

/// Everything a run mutates, behind the driver's one lock. Kernels run
/// outside it; it is held only to pick an op and to book a finished one.
struct RunState<'o> {
    /// Ops whose in-edges are all done, smallest index first.
    ready: BinaryHeap<Reverse<usize>>,
    /// Remaining unfinished in-edges per op (operands and hoist leader).
    indegree: Vec<usize>,
    /// Remaining consumer instances per value (+1 for program outputs).
    uses: Vec<usize>,
    /// Encrypted inputs awaiting admission.
    inputs: Vec<Option<OpValue>>,
    /// Computed values still needed by a consumer or as an output.
    vals: Vec<Option<Arc<OpValue>>>,
    /// Beside each value in `vals`: the decomposition its hoist leader
    /// made, released with the value.
    hoisted: Vec<Option<Arc<HoistedDecomp>>>,
    done: usize,
    /// Set on the first failure (or a worker panic): workers drain.
    stop: bool,
    error: Option<ExecError>,
    ledger: NoiseLedger,
    observer: Option<OpObserver<'o>>,
    op_us: Vec<f64>,
    live_cipher: usize,
    peak_live: usize,
    live_bytes: usize,
    peak_bytes: usize,
}

/// Stops the run if its worker unwinds, so the peers parked on `wake`
/// exit and `run_scoped` can re-raise the panic instead of hanging.
struct StopOnUnwind<'d, 'a, 'o>(&'d Driver<'a, 'o>);

impl Drop for StopOnUnwind<'_, '_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Raising `stop` is valid whatever the panic interrupted.
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).stop = true;
            self.0.wake.notify_all();
        }
    }
}

impl<'o> Driver<'_, 'o> {
    fn lock(&self) -> MutexGuard<'_, RunState<'o>> {
        self.state.lock().expect("a peer worker panicked mid-run")
    }

    /// The worker loop: pop the smallest ready op, run it unlocked, book
    /// the result, until the DAG is complete or the run stops.
    fn work(&self) {
        let _stop = StopOnUnwind(self);
        let engine = self.engine;
        let ops = engine.prog.func.ops();
        let mut state = self.lock();
        loop {
            let i = loop {
                if state.stop || state.done == ops.len() {
                    return;
                }
                if let Some(Reverse(i)) = state.ready.pop() {
                    break i;
                }
                state = self
                    .wake
                    .wait(state)
                    .expect("a peer worker panicked mid-run");
            };
            let result = if self.cancel.is_some_and(CancelToken::is_cancelled) {
                Err(ExecError::Cancelled { at: i })
            } else {
                let input = state.inputs[i].take();
                let operands = ops[i].operands();
                let values: Vec<Arc<OpValue>> = operands
                    .iter()
                    .map(|v| {
                        state.vals[v.index()]
                            .clone()
                            .expect("operands precede consumers")
                    })
                    .collect();
                // A hoist follower takes the decomposition its leader
                // booked beside the operand; a leader books it there below.
                let role = engine.lowering.ops()[i].rotation.map(|(_, role)| role);
                let mut hoisted = match role {
                    Some(HoistRole::Follower { .. }) => state.hoisted[operands[0].index()].clone(),
                    _ => None,
                };
                drop(state);
                let result = match input {
                    Some(mut value) => engine
                        .admit_value(i, &mut value)
                        .map(|injected_var| (value, 0.0, injected_var)),
                    None => {
                        let refs: Vec<&OpValue> = values.iter().map(Arc::as_ref).collect();
                        engine.exec_op(i, &refs, &mut hoisted)
                    }
                };
                state = self.lock();
                if role == Some(HoistRole::Leader) {
                    state.hoisted[operands[0].index()] = hoisted;
                }
                result.and_then(|(value, us, injected_var)| {
                    state.book(engine, i, value, us, injected_var)
                })
            };
            if let Err(e) = result {
                state.error.get_or_insert(e);
                state.stop = true;
            }
            if self.jobs > 1 {
                self.wake.notify_all();
            }
        }
    }
}

impl RunState<'_> {
    /// Books finished operation `i`: ledger and noise guard, precision
    /// mark, observer, liveness accounting, operand release, and the
    /// consumers it makes ready.
    fn book(
        &mut self,
        engine: &ExecEngine,
        i: usize,
        value: OpValue,
        us: f64,
        injected_var: f64,
    ) -> Result<(), ExecError> {
        let prog = &engine.prog;
        // The precision ledger always runs: its per-op cost (a few float
        // ops) is invisible next to the NTT kernels, and emitting marks is
        // gated inside the tracer. Recording never touches ciphertext
        // bits, so runs are bit-identical with or without a consumer.
        let entry = self.ledger.record(prog, i, injected_var).cloned();
        if let Some(max_rms) = engine.guard.max_rms {
            let rms = self.ledger.rms(i);
            if rms > max_rms {
                return Err(ExecError::BudgetExhausted {
                    at: i,
                    deficit: (rms / max_rms).log2(),
                });
            }
        }
        if let Some(e) = &entry {
            trace::mark_with("precision", || {
                vec![
                    ("i", e.op.into()),
                    ("op", e.mnemonic.into()),
                    ("level", e.level.into()),
                    ("scale_bits", e.scale_bits.into()),
                    ("predicted_rms", e.predicted_rms.into()),
                    ("margin_bits", e.margin_bits.into()),
                    ("budget_bits", e.budget_bits.into()),
                ]
            });
        }
        if let Some(observe) = self.observer.as_mut() {
            observe(i, &value, entry.map_or(0.0, |e| e.predicted_rms))?;
        }
        self.op_us[i] = us;
        let degree = engine.degree();
        if value.is_cipher() {
            self.live_cipher += 1;
            self.peak_live = self.peak_live.max(self.live_cipher);
            self.live_bytes += value.cipher_bytes(degree);
            self.peak_bytes = self.peak_bytes.max(self.live_bytes);
        }
        self.vals[i] = Some(Arc::new(value));
        // Liveness-driven release: drop operands whose last consumer
        // this was.
        for v in prog.func.ops()[i].operands() {
            self.uses[v.index()] -= 1;
            if self.uses[v.index()] == 0 {
                self.hoisted[v.index()] = None;
                if let Some(dead) = self.vals[v.index()].take() {
                    if dead.is_cipher() {
                        self.live_cipher -= 1;
                        self.live_bytes -= dead.cipher_bytes(degree);
                    }
                }
            }
        }
        for &user in &engine.users[i] {
            self.indegree[user] -= 1;
            if self.indegree[user] == 0 {
                self.ready.push(Reverse(user));
            }
        }
        self.done += 1;
        Ok(())
    }
}
