//! Per-tenant sessions: key material and the runtime's one engine cache.
//!
//! A [`Session`] is the unit of cryptographic isolation. Each session has
//! its own key seed, so its secret/public/evaluation keys are disjoint
//! from every other session's; a ciphertext produced under one session's
//! keys decrypts to noise under another's (see the `cross_session`
//! test). Compiled plans are *shared* across sessions through the
//! [`crate::cache::PlanCache`] — only key material is per-tenant.
//!
//! **Isolation is against mix-ups, not adversaries.** This is a research
//! harness built for reproducibility: by default every session seed is a
//! deterministic FNV-1a mix of the runtime's base seed and a sequential
//! session id, so anyone who knows the configuration can reconstruct
//! every session's secret key. The per-session keys prevent *accidental*
//! cross-tenant decryption, not attacks. Deployments that want
//! unpredictable keys at the cost of run-to-run reproducibility should
//! construct the manager with [`SessionManager::with_os_entropy`].
//!
//! Engines are created lazily: the first time a session executes a given
//! plan at a given occupancy, an [`ExecEngine`] is built from the plan's
//! compiled program, which derives the program's key requirements itself
//! and generates one Galois key per rotation step and one
//! relinearization key. The engine (and thus the key material) is then
//! cached per `(plan key, occupancy)` and shared by reference among
//! worker threads — every `ExecEngine` method takes `&self`. Solo
//! requests run at occupancy 1 under their own session; slot-batched
//! runs use the manager's shared session (id 0, never handed out),
//! because a packed ciphertext is one ciphertext under one key. A tenant
//! session's engines go when it closes; the shared session is never
//! closed, so its engines go when the plan cache evicts their plan.

use crate::cache::PlanArtifact;
use crate::RuntimeError;
use hecate_backend::exec::{BackendOptions, ExecEngine, ExecError};
use hecate_ir::hash::Fnv1a;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Identifies a tenant session within one [`crate::Runtime`].
pub type SessionId = u64;

/// A session's engines by `(plan key, occupancy)`. `None` is a
/// tombstone: the plan's slot footprint does not fit that many tenant
/// blocks, so later batches shrink at once instead of retrying keygen.
type EngineMap = HashMap<(u64, usize), Option<Arc<ExecEngine>>>;

/// Locks `m`, recovering from poisoning. Every map here is mutated by
/// single `HashMap` operations over `Arc` values, so a panicked holder
/// cannot leave it half-updated; recovering keeps one isolated panic from
/// disabling a session or the whole manager.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One tenant's cryptographic context.
pub struct Session {
    id: SessionId,
    /// Key-generation seed; all engines of this session derive their
    /// secret key from it, so the session has one identity across plans.
    seed: u64,
    engines: Mutex<EngineMap>,
}

impl Session {
    fn new(id: SessionId, seed: u64) -> Self {
        Session {
            id,
            seed,
            engines: Mutex::default(),
        }
    }

    /// This session's identifier.
    pub fn id(&self) -> SessionId {
        self.id
    }

    /// This session's key seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of engines (and key sets) this session has built and
    /// cached.
    pub fn engine_count(&self) -> usize {
        lock(&self.engines).values().flatten().count()
    }

    /// The engine executing `artifact` at `occupancy` under this
    /// session's keys, building it (keygen + evaluation keys) on first
    /// use. `Ok(None)` means the plan's slot footprint does not fit
    /// `occupancy` tenant blocks; that answer is cached too, so it is
    /// instant next time. Occupancy 1 always fits.
    ///
    /// Construction happens *outside* the engine-map lock: keygen is
    /// expensive and can fail or panic, and neither outcome may poison or
    /// serialize the session's other plans. Two threads racing a cold
    /// plan may both build; the first insert wins and the loser's engine
    /// is dropped (identical keys — same seed — so it is only wasted
    /// work, never an inconsistency).
    ///
    /// # Errors
    /// Propagates other engine construction failures as
    /// [`RuntimeError::Exec`]; they are not cached, so a later attempt
    /// may succeed.
    pub fn engine(
        &self,
        artifact: &PlanArtifact,
        occupancy: usize,
        backend: &BackendOptions,
    ) -> Result<Option<Arc<ExecEngine>>, RuntimeError> {
        let key = (artifact.key, occupancy);
        let mut span = hecate_telemetry::trace::span_with("session-engine", || {
            vec![
                ("session", self.id.into()),
                ("plan_key", artifact.key.into()),
                ("occupancy", occupancy.into()),
            ]
        });
        if let Some(cached) = lock(&self.engines).get(&key) {
            span.attr("built", false.into());
            return Ok(cached.clone());
        }
        span.attr("built", true.into());
        let engine = match self.build_engine(artifact, occupancy, backend) {
            Ok(engine) => Some(Arc::new(engine)),
            Err(ExecError::BatchUnsupported { .. }) => None,
            Err(e) => return Err(RuntimeError::Exec(e)),
        };
        Ok(lock(&self.engines).entry(key).or_insert(engine).clone())
    }

    /// Drops the engines (and tombstones) of every plan `keep` rejects.
    pub(crate) fn retain_plans(&self, keep: impl Fn(u64) -> bool) {
        lock(&self.engines).retain(|&(plan, _), _| keep(plan));
    }

    /// Builds an uncached engine running `artifact` at `occupancy` under
    /// this session's keys: the constructor behind [`Session::engine`],
    /// called directly for one-off engines that must never be shared
    /// (the chaos harness's sabotaged ones).
    pub(crate) fn build_engine(
        &self,
        artifact: &PlanArtifact,
        occupancy: usize,
        backend: &BackendOptions,
    ) -> Result<ExecEngine, ExecError> {
        let opts = BackendOptions {
            seed: self.seed,
            batch_occupancy: occupancy,
            ..backend.clone()
        };
        ExecEngine::new(artifact.prog.clone(), &opts)
    }
}

/// The seed of session `id`: an FNV-1a mix, so neighboring ids get
/// unrelated seeds.
fn session_seed(base_seed: u64, id: SessionId) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&base_seed.to_le_bytes());
    h.write(&id.to_le_bytes());
    h.finish()
}

/// Creates and resolves [`Session`]s, and owns the shared session
/// slot-batched runs execute under.
pub struct SessionManager {
    base_seed: u64,
    sessions: Mutex<HashMap<SessionId, Arc<Session>>>,
    next_id: AtomicU64,
    /// Session 0: never returned by [`SessionManager::open`] or
    /// [`SessionManager::get`], seeded like any other.
    shared: Session,
}

impl SessionManager {
    /// A manager deriving session seeds deterministically from
    /// `base_seed`.
    ///
    /// Fully reproducible — and therefore fully predictable: see the
    /// module docs for what per-session isolation does and does not
    /// defend against. Use [`SessionManager::with_os_entropy`] when key
    /// unpredictability matters more than reproducibility.
    pub fn new(base_seed: u64) -> Self {
        SessionManager {
            base_seed,
            sessions: Mutex::default(),
            next_id: AtomicU64::new(1),
            shared: Session::new(0, session_seed(base_seed, 0)),
        }
    }

    /// A manager whose base seed mixes `base_seed` with OS-provided
    /// entropy, so session keys cannot be reconstructed from the
    /// configuration alone. Runs are no longer reproducible.
    pub fn with_os_entropy(base_seed: u64) -> Self {
        use std::collections::hash_map::RandomState;
        use std::hash::{BuildHasher, Hasher};
        // `RandomState` keys come from the OS entropy source; hashing
        // nothing still yields a value derived from those keys, and each
        // `RandomState::new()` draws fresh ones.
        let entropy = RandomState::new().build_hasher().finish();
        let mut h = Fnv1a::new();
        h.write(&base_seed.to_le_bytes());
        h.write(&entropy.to_le_bytes());
        SessionManager::new(h.finish())
    }

    /// Opens a new session with a seed derived from the base seed and the
    /// session id.
    pub fn open(&self) -> Arc<Session> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session::new(id, session_seed(self.base_seed, id)));
        lock(&self.sessions).insert(id, session.clone());
        session
    }

    /// Resolves an open session.
    ///
    /// # Errors
    /// Returns [`RuntimeError::UnknownSession`] for ids never opened (or
    /// already closed).
    pub fn get(&self, id: SessionId) -> Result<Arc<Session>, RuntimeError> {
        lock(&self.sessions)
            .get(&id)
            .cloned()
            .ok_or(RuntimeError::UnknownSession(id))
    }

    /// The runtime-owned session every slot-batched run executes under.
    pub(crate) fn shared(&self) -> &Session {
        &self.shared
    }

    /// Closes a session, dropping its engines and key material.
    pub fn close(&self, id: SessionId) {
        lock(&self.sessions).remove(&id);
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        lock(&self.sessions).len()
    }

    /// True when no session is open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hecate_ckks::{CkksEncoder, CkksParams, Decryptor, Encryptor, KeyGenerator};

    /// Every session, the shared one included, gets its own seed; the
    /// shared session is never resolvable by id.
    #[test]
    fn sessions_get_distinct_seeds() {
        let mgr = SessionManager::new(7);
        let a = mgr.open();
        let b = mgr.open();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.seed(), b.seed());
        assert_eq!(mgr.shared().id(), 0);
        assert!(![a.seed(), b.seed()].contains(&mgr.shared().seed()));
        assert!(
            mgr.get(0).is_err(),
            "the shared session is never handed out"
        );
        assert_eq!(mgr.len(), 2);
        mgr.close(a.id());
        assert!(mgr.get(a.id()).is_err());
        assert!(mgr.get(b.id()).is_ok());
    }

    /// Two managers built from the same base seed but with OS entropy
    /// mixed in derive unrelated session seeds (the deterministic
    /// constructor would derive identical ones).
    #[test]
    fn os_entropy_makes_seeds_unpredictable() {
        let a = SessionManager::with_os_entropy(7).open().seed();
        let b = SessionManager::with_os_entropy(7).open().seed();
        assert_ne!(a, b, "entropy-mixed managers must not collide");
        let c = SessionManager::new(7).open().seed();
        let d = SessionManager::new(7).open().seed();
        assert_eq!(c, d, "deterministic managers reproduce exactly");
    }

    /// A worker panicking while holding the session map (or a session's
    /// engine map) must not take the manager down with it: locks recover
    /// from poisoning and later opens/gets keep working.
    #[test]
    fn poisoned_session_locks_are_recovered() {
        let mgr = SessionManager::new(7);
        let session = mgr.open();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _sessions = mgr.sessions.lock().unwrap();
                let _engines = session.engines.lock().unwrap();
                panic!("poison the session map and the engine map");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(mgr.sessions.is_poisoned(), "setup must have poisoned");
        assert!(mgr.get(session.id()).is_ok(), "get recovers the lock");
        assert_eq!(session.engine_count(), 0, "engine map recovers too");
        let b = mgr.open();
        assert_eq!(mgr.len(), 2);
        mgr.close(b.id());
        assert_eq!(mgr.len(), 1);
    }

    /// Session ids are allocated lock-free; concurrent opens must never
    /// collide, and every opened session must resolve afterwards.
    #[test]
    fn concurrent_opens_get_unique_ids() {
        let mgr = SessionManager::new(11);
        let ids: Vec<SessionId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| (0..25).map(|_| mgr.open().id()).collect::<Vec<_>>()))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "no duplicate session ids");
        assert_eq!(mgr.len(), ids.len());
        for id in ids {
            assert!(mgr.get(id).is_ok());
        }
    }

    /// The isolation invariant behind per-session keys: a ciphertext from
    /// one session is garbage under another session's secret key.
    #[test]
    fn cross_session_decryption_yields_noise() {
        let mgr = SessionManager::new(99);
        let sa = mgr.open();
        let sb = mgr.open();
        let params = CkksParams::new(64, 40, 30, 1, false).unwrap();
        let encoder = CkksEncoder::new(&params);
        let message = vec![1.0; params.slots()];
        let pt = encoder.encode(&message, 20.0, 0).unwrap();

        let mut kg_a = KeyGenerator::new(&params, sa.seed());
        let pk_a = kg_a.public_key();
        let mut enc_a = Encryptor::new(&params, pk_a, sa.seed().wrapping_add(1));
        let ct = enc_a.encrypt(&pt);

        let dec_a = Decryptor::new(&params, kg_a.secret_key().clone());
        let ok = encoder.decode(&dec_a.decrypt(&ct));
        assert!((ok[0] - 1.0).abs() < 1e-2, "own key decrypts correctly");

        let kg_b = KeyGenerator::new(&params, sb.seed());
        let dec_b = Decryptor::new(&params, kg_b.secret_key().clone());
        let garbage = encoder.decode(&dec_b.decrypt(&ct));
        let rms = hecate_backend::rms_error(&ok, &garbage);
        assert!(
            rms > 1.0,
            "cross-session decryption must be noise, rms={rms}"
        );
    }
}
