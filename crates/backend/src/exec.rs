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
//! - **One thread.** A run walks the ops in SSA order on the calling
//!   thread: poll the cancel token, admit an encrypted input or run the
//!   kernel, book the result, then drop the values whose last use that
//!   op was. The per-op lists of those values are fixed when the engine
//!   is built (outputs are never dropped), so liveness, peaks and
//!   observer order are the same on every run. A hoist leader's
//!   decomposition sits beside its operand and goes with it; the leader
//!   precedes its followers in SSA order, so each hoist group decomposes
//!   once. The only threads inside a run are a kernel's limb stripes
//!   (`kernel_jobs`).
//! - **Tenants.** A run serves `engine.occupancy()` tenants packed into
//!   disjoint slot blocks of each ciphertext; solo execution is the
//!   one-tenant case (one block spanning every slot is exactly
//!   replication, and its contamination reach is empty).
//! - **Determinism.** Randomness is confined to key generation (engine
//!   construction) and input encryption, which happens in operation
//!   order from a fresh [`Encryptor`] seeded with `seed + 1` before any
//!   op runs. Every homomorphic kernel is a deterministic function of its
//!   operands, so a run is bit-identical at every `kernel_jobs`.
//! - **Noise.** The engine predicts each value's RMS noise once, at build
//!   ([`crate::noise::predict_rms`]); every run's `max_rms` guard,
//!   `precision` marks, observer and margin read that prediction.
//!
//! Two conventions matter:
//!
//! - **Nominal scales.** Compiler scales are nominal whole log2 bits
//!   (the type system's invariant), and after every `rescale`, `upscale`
//!   and `downscale` the executor re-declares the nominal scale, exactly
//!   as EVA does on SEAL. After a `rescale` the actual scale differs from
//!   nominal by `S_f − log2(q_dropped)` (a ~2⁻²⁰ relative offset),
//!   absorbed into the measured error. An adjustment by δ bits multiplies
//!   by the integer `2^δ`, exact because δ is whole.
//! - **Replication.** A program with logical vector width `w` runs on a
//!   ring with `N/2 ≥ w` slots by replicating every input and constant
//!   `N/2 / w` times. Cyclic rotation of a periodic vector rotates every
//!   window, so IR rotation semantics are preserved for any power-of-two
//!   `w` dividing the slot count.

use crate::fault::FaultPlan;
use crate::noise::predict_rms;
use hecate_ckks::encoder::{scale_multiplier, EncodeError};
use hecate_ckks::eval::EvalError;
use hecate_ckks::params::ParamsError;
use hecate_ckks::{
    Ciphertext, CkksEncoder, CkksParams, Decryptor, Encryptor, EvalKeys, Evaluator, HoistedDecomp,
    KeyGenerator, Plaintext, PublicKey,
};
use hecate_compiler::{CompiledProgram, HoistRole, Lowering};
use hecate_ir::types::TypeConfig;
use hecate_ir::Op;
use hecate_telemetry::trace;
use hecate_telemetry::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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
    /// Runtime guards (representation validation, noise monitoring); the
    /// scale/level/prefix check always runs.
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

/// Which optional runtime guards the executor runs after every operation,
/// beside the check of each ciphertext's declared scale, level and RNS
/// prefix against the compiled plan's types, which always runs.
#[derive(Debug, Clone, Default)]
pub struct GuardOptions {
    /// Scan every residue row of each result for values outside its
    /// prime's range (an `O(N·prefix)` pass per op; off by default).
    pub validate_repr: bool,
    /// Abort with [`ExecError::BudgetExhausted`] once the engine's
    /// predicted RMS noise of an executed value exceeds this bound. `None`
    /// disables the check.
    pub max_rms: Option<f64>,
}

/// Guards with everything enabled (as the fault-injection suite runs).
impl GuardOptions {
    /// All guards on, with the given noise budget (RMS bound).
    pub fn strict(max_rms: f64) -> Self {
        GuardOptions {
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
    /// Encoding failed, or a scale adjustment's integer multiplier does
    /// not fit a `u64` ([`EncodeError::ScaleOverflow`]).
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
    /// and decryption excluded — matching the paper's latency metric):
    /// the sum of `op_us`.
    pub total_us: f64,
    /// Per-operation time, microseconds (zero for ops the lowering prices
    /// at nothing).
    pub op_us: Vec<f64>,
    /// Peak number of simultaneously live ciphertexts. A value is freed
    /// once the op that is its last use finishes (the paper's SEAL
    /// dialect optimizes memory by the same liveness analysis), so the
    /// peak is fixed by the plan.
    pub peak_live: usize,
    /// Peak ciphertext working set in bytes, under the same release rule.
    pub peak_bytes: usize,
    /// Ring degree used.
    pub degree: usize,
    /// Chain length used.
    pub chain_len: usize,
    /// Tightest scale-vs-waterline margin (bits) across every cipher
    /// operation of the plan. Infinite when the program produces no
    /// ciphertexts.
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
        prog.params.q0_bits,
        prog.params.sf_bits,
        prog.params.chain_len - 1,
        false,
    )?)
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
/// outputs.
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
    /// The plan's type environment: `S_f` for rescale and downscale, the
    /// waterline, and the per-level modulus budget of the precision marks.
    cfg: TypeConfig,
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
    /// Per op, the values whose last use it is, dropped once it is
    /// booked. Outputs and unused values are in no list: they survive
    /// the run.
    frees: Vec<Vec<usize>>,
    /// Predicted decoded-domain RMS noise per value, and the tightest
    /// cipher scale-vs-waterline margin: fixed by the plan, degree,
    /// occupancy and fault plan, so every run shares them.
    predicted_rms: Vec<f64>,
    min_margin_bits: f64,
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
        let cfg = prog.params.type_config(prog.waterline);
        let mut last_use = vec![None; prog.func.len()];
        for (i, op) in prog.func.ops().iter().enumerate() {
            for v in op.operands() {
                last_use[v.index()] = Some(i);
            }
        }
        for (_, v) in prog.func.outputs() {
            last_use[v.index()] = None;
        }
        let mut frees = vec![Vec::new(); prog.func.len()];
        for (v, last) in last_use.into_iter().enumerate() {
            if let Some(i) = last {
                frees[i].push(v);
            }
        }
        let predicted_rms = predict_rms(&prog, params.degree(), occupancy, opts.fault.as_ref());
        let min_margin_bits = prog
            .types
            .iter()
            .filter(|t| t.is_cipher())
            .map(|t| t.scale().unwrap_or(0.0) - cfg.waterline)
            .fold(f64::INFINITY, f64::min);
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
            cfg,
            seed: opts.seed,
            occupancy,
            block,
            reaches,
            lowering,
            frees,
            predicted_rms,
            min_margin_bits,
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

    /// Folds one finished run into the global `hecate_precision_*`
    /// metric family: counts its cipher ops and publishes the tightest
    /// margin (millibits, so the integer gauge keeps three decimal places).
    fn publish_precision(&self) {
        let cipher_ops = self.prog.types.iter().filter(|t| t.is_cipher()).count();
        self.precision_ops.add(cipher_ops as u64);
        if self.min_margin_bits.is_finite() {
            self.precision_margin_gauge
                .set((self.min_margin_bits * 1000.0) as i64);
        }
    }

    /// Encodes `blocks` (one vector per `block`-slot block, laid out by
    /// [`hecate_ckks::pack_blocks`]; one block spanning every slot
    /// replicates a constant) at `scale` and `level`. Plaintexts are
    /// prepared ahead of execution in NTT form, as SEAL does, so ct⊙pt
    /// operations cost a pointwise pass only.
    fn encode(
        &self,
        blocks: &[Vec<f64>],
        block: usize,
        scale: f64,
        level: usize,
    ) -> Result<Plaintext, ExecError> {
        let packed = hecate_ckks::pack_blocks(blocks, self.vec_size, block, self.slots);
        let mut pt = self.encoder.encode(&packed, scale, level)?;
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
                    let scale = self.prog.types[i].scale().expect("cipher input");
                    let pt = self.encode(&per_tenant, self.block, scale, 0)?;
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
    /// Returns the value and the homomorphic kernel time in microseconds
    /// (zero for operations the lowering prices at nothing). `hoisted`
    /// holds the decomposition beside each value: a hoist leader fills
    /// its operand's, a follower reads it. `input` operations are handled
    /// by [`ExecEngine::encrypt_inputs`] and [`ExecEngine::admit_value`],
    /// not here.
    fn exec_op(
        &self,
        i: usize,
        operands: &[&OpValue],
        hoisted: &mut [Option<HoistedDecomp>],
    ) -> Result<(OpValue, f64), ExecError> {
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
        // Every op the lowering prices is timed, and only those: the
        // measured column lines up with the estimate cell by cell.
        let t0 = Instant::now();
        let value = self.compute(i, operands, hoisted)?;
        let mut us = 0.0;
        if !lowered.cost_ops.is_empty() {
            us = t0.elapsed().as_secs_f64() * 1e6;
            self.ops_counter.inc();
            self.op_us_hist.observe(us as u64);
        }
        span.attr("us", us.into());
        let mut value = OpValue(value);
        self.admit_value(i, &mut value)?;
        Ok((value, us))
    }

    /// Applies fault injection and guards to a value, computed or an
    /// encrypted input.
    fn admit_value(&self, i: usize, value: &mut OpValue) -> Result<(), ExecError> {
        self.inject_fault(i, value);
        self.check_guards(i, value)
    }

    fn compute(
        &self,
        i: usize,
        operands: &[&OpValue],
        hoisted: &mut [Option<HoistedDecomp>],
    ) -> Result<Val, ExecError> {
        let prog = &self.prog;
        let op = &prog.func.ops()[i];
        let eval = &self.eval;
        let eval_err = |source: EvalError| ExecError::Eval { at: i, source };
        Ok(match op {
            Op::Input { .. } => unreachable!("inputs are encrypted before the walk"),
            Op::Const { data } => Val::Free((0..self.vec_size).map(|k| data.at(k)).collect()),
            Op::Encode {
                scale_bits, level, ..
            } => {
                let Val::Free(data) = &operands[0].0 else {
                    unreachable!("encode takes a free operand");
                };
                Val::Plain(self.encode(
                    std::slice::from_ref(data),
                    self.slots,
                    *scale_bits,
                    *level,
                )?)
            }
            Op::Add(..) | Op::Sub(..) => Val::Cipher(match (&operands[0].0, &operands[1].0) {
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
                        let s = eval.add_plain(&eval.negate(ca), pb).map_err(eval_err)?;
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
            }),
            Op::Mul(..) => Val::Cipher(match (&operands[0].0, &operands[1].0) {
                (Val::Cipher(ca), Val::Cipher(cb)) => eval.mul(ca, cb).map_err(eval_err)?,
                (Val::Cipher(ca), Val::Plain(pb)) => eval.mul_plain(ca, pb).map_err(eval_err)?,
                (Val::Plain(pa), Val::Cipher(cb)) => eval.mul_plain(cb, pa).map_err(eval_err)?,
                _ => unreachable!("binary op on free operands"),
            }),
            Op::Negate(..) => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("negate on cipher")
                };
                Val::Cipher(eval.negate(c))
            }
            Op::Rotate { value, .. } => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("rotate on cipher")
                };
                let (s, role) = self.lowering.ops()[i]
                    .rotation
                    .expect("rotations are lowered");
                let hoisted = &mut hoisted[value.index()];
                let out = match role {
                    HoistRole::Lone => eval.rotate(c, s),
                    HoistRole::Leader => {
                        let t0 = Instant::now();
                        let mut span = trace::span_with("hoist-decompose", || {
                            vec![
                                ("value", value.index().into()),
                                ("active_primes", c.prefix().into()),
                            ]
                        });
                        let hd = hoisted.insert(eval.hoist(c));
                        span.attr("us", (t0.elapsed().as_secs_f64() * 1e6).into());
                        drop(span);
                        eval.rotate_hoisted(c, hd, s)
                    }
                    HoistRole::Follower { .. } => {
                        eval.rotate_hoisted(c, hoisted.as_ref().expect("the leader ran first"), s)
                    }
                }
                .map_err(eval_err)?;
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
                    let mut out = eval.rescale(c).map_err(eval_err)?;
                    // Nominal scale declaration (see module docs).
                    out.scale_bits = c.scale_bits - self.cfg.sf_bits;
                    Val::Cipher(out)
                }
            }
            Op::ModSwitch(..) => match &operands[0].0 {
                Val::Cipher(c) => Val::Cipher(eval.mod_switch(c).map_err(eval_err)?),
                Val::Plain(p) => {
                    let mut out = p.clone();
                    out.poly.drop_last();
                    out.level += 1;
                    Val::Plain(out)
                }
                Val::Free(_) => unreachable!("modswitch on a free operand"),
            },
            Op::Upscale { target_bits, .. } => {
                // Multiply by 2^δ, then declare the target scale (see
                // module docs).
                match &operands[0].0 {
                    Val::Cipher(c) => {
                        let m = scale_multiplier(target_bits - c.scale_bits)?;
                        let mut out = eval.mul_integer(c, m);
                        out.scale_bits = *target_bits;
                        Val::Cipher(out)
                    }
                    Val::Plain(p) => {
                        let m = scale_multiplier(target_bits - p.scale_bits)?;
                        let mut out = p.clone();
                        out.poly.mul_scalar(m, self.params.basis());
                        out.scale_bits = *target_bits;
                        Val::Plain(out)
                    }
                    Val::Free(_) => unreachable!("upscale on a free operand"),
                }
            }
            Op::Downscale(..) => {
                let Val::Cipher(c) = &operands[0].0 else {
                    unreachable!("cipher downscale")
                };
                // Multiply by 2^(S_f + S_w − j), then rescale: the scale
                // lands on the waterline (nominally).
                let target = self.cfg.waterline;
                let m = scale_multiplier(self.cfg.sf_bits + target - c.scale_bits)?;
                let mut out = eval.rescale(&eval.mul_integer(c, m)).map_err(eval_err)?;
                out.scale_bits = target;
                Val::Cipher(out)
            }
        })
    }

    fn inject_fault(&self, i: usize, value: &mut OpValue) {
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
                    // — decryption without the guard returns garbage;
                    // `predict_rms` adds its variance, 4.0.
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
                }
                _ => {}
            }
        }
    }

    fn check_guards(&self, i: usize, value: &OpValue) -> Result<(), ExecError> {
        let basis = self.params.basis();
        if let Val::Cipher(c) = &value.0 {
            let ty = self.prog.types[i];
            let want_scale = ty.scale().unwrap_or(c.scale_bits);
            let want_level = ty.level().unwrap_or(c.level);
            if c.scale_bits != want_scale {
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

    /// The noise guard and `precision` mark of finished operation `i`.
    /// Returns the predicted RMS the observer sees: the engine's
    /// prediction for a cipher value, 0 for a plain or free one.
    fn check_noise(&self, i: usize) -> Result<f64, ExecError> {
        let prog = &self.prog;
        let rms = self.predicted_rms[i];
        if let Some(max_rms) = self.guard.max_rms {
            if rms > max_rms {
                return Err(ExecError::BudgetExhausted {
                    at: i,
                    deficit: (rms / max_rms).log2(),
                });
            }
        }
        let ty = prog.types[i];
        if !ty.is_cipher() {
            return Ok(0.0);
        }
        trace::mark_with("precision", || {
            let (level, scale_bits) = (ty.level().unwrap_or(0), ty.scale().unwrap_or(0.0));
            let cfg = &self.cfg;
            let modulus_bits = cfg.budget_at(level).unwrap_or(0.0);
            vec![
                ("i", i.into()),
                ("op", prog.func.ops()[i].mnemonic().into()),
                ("level", level.into()),
                ("scale_bits", scale_bits.into()),
                ("predicted_rms", rms.into()),
                ("margin_bits", (scale_bits - cfg.waterline).into()),
                ("budget_bits", (modulus_bits - scale_bits).into()),
            ]
        });
        Ok(rms)
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
/// (setup amortized): [`execute`] with one tenant.
///
/// # Errors
/// Returns [`ExecError`] on input, evaluator, or guard failures.
pub fn execute_sequential(
    engine: &ExecEngine,
    inputs: &HashMap<String, Vec<f64>>,
) -> Result<EncryptedRun, ExecError> {
    let mut runs = execute(engine, &[inputs], None, None)?;
    Ok(runs.pop().expect("one run per tenant"))
}

/// A per-op observer for audited runs, called once per executed operation,
/// in SSA order, after fault injection and guards with `(op index, value,
/// predicted RMS)`. The predicted RMS is the engine's noise prediction for
/// cipher values (0 for plain/free values). Returning an error aborts the
/// run.
pub type OpObserver<'a> = &'a mut dyn FnMut(usize, &OpValue, f64) -> Result<(), ExecError>;

/// Executes `engine`'s program once for `tenants.len()` tenants — which
/// must equal the engine's occupancy — on the calling thread, and returns
/// one [`EncryptedRun`] per tenant, in block order. See the module docs
/// for the walk, determinism, and noise-model contract.
///
/// `observer` is the audit hook: it only *reads* values (decryption does
/// not consume a ciphertext), so an observed run is bit-identical to an
/// unobserved one. `cancel` is polled before every op, so a timed-out or
/// shed run stops burning cores within one kernel.
///
/// # Errors
/// Returns [`ExecError`] on input, evaluator, guard, observer, or
/// cancellation failures — the first failure ends the run — and
/// [`ExecError::BatchUnsupported`] on a tenant-count mismatch.
pub fn execute(
    engine: &ExecEngine,
    tenants: &[&HashMap<String, Vec<f64>>],
    mut observer: Option<OpObserver<'_>>,
    cancel: Option<&CancelToken>,
) -> Result<Vec<EncryptedRun>, ExecError> {
    let prog = &engine.prog;
    let ops = prog.func.ops();
    let n = ops.len();
    let degree = engine.degree();
    let mut span = trace::span_with("execute", || {
        vec![
            ("func", prog.func.name.as_str().into()),
            ("ops", n.into()),
            ("degree", degree.into()),
            ("chain_len", engine.chain_len.into()),
            ("occupancy", engine.occupancy.into()),
            ("est_us", prog.stats.estimated_latency_us.into()),
        ]
    });
    // Encrypted inputs wait in their op's slot until the walk admits them.
    let mut vals = engine.encrypt_inputs(tenants)?;
    let mut hoisted: Vec<Option<HoistedDecomp>> = (0..n).map(|_| None).collect();
    let mut op_us = vec![0.0; n];
    let (mut live, mut peak_live, mut live_bytes, mut peak_bytes) = (0, 0, 0, 0);
    for i in 0..n {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(ExecError::Cancelled { at: i });
        }
        let (value, us) = match vals[i].take() {
            Some(mut input) => {
                engine.admit_value(i, &mut input)?;
                (input, 0.0)
            }
            None => {
                let operands: Vec<&OpValue> = ops[i]
                    .operands()
                    .iter()
                    .map(|v| {
                        vals[v.index()]
                            .as_ref()
                            .expect("operands precede consumers")
                    })
                    .collect();
                engine.exec_op(i, &operands, &mut hoisted)?
            }
        };
        let predicted_rms = engine.check_noise(i)?;
        if let Some(observe) = observer.as_mut() {
            observe(i, &value, predicted_rms)?;
        }
        op_us[i] = us;
        if value.is_cipher() {
            live += 1;
            peak_live = peak_live.max(live);
            live_bytes += value.cipher_bytes(degree);
            peak_bytes = peak_bytes.max(live_bytes);
        }
        vals[i] = Some(value);
        for &v in &engine.frees[i] {
            hoisted[v] = None;
            if let Some(dead) = vals[v].take().filter(OpValue::is_cipher) {
                live -= 1;
                live_bytes -= dead.cipher_bytes(degree);
            }
        }
    }

    let mut outputs: Vec<HashMap<String, Vec<f64>>> = vec![HashMap::new(); engine.occupancy];
    for (name, v) in prog.func.outputs() {
        let value = vals[v.index()].as_ref().expect("outputs are retained");
        for (t, data) in engine.demux(value, v.index(), 1).into_iter().enumerate() {
            outputs[t].insert(name.clone(), data);
        }
    }
    engine.publish_precision();
    let total_us: f64 = op_us.iter().sum();
    let min_margin_bits = engine.min_margin_bits;
    span.attr("total_us", total_us.into());
    span.attr("min_margin_bits", min_margin_bits.into());
    Ok(outputs
        .into_iter()
        .map(|outputs| EncryptedRun {
            outputs,
            total_us,
            op_us: op_us.clone(),
            peak_live,
            peak_bytes,
            degree,
            chain_len: engine.chain_len,
            min_margin_bits,
        })
        .collect())
}
