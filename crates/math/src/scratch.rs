//! A thread-local pool of scratch `Vec<u64>` buffers.
//!
//! Key switching and hoisted rotation decomposition churn through
//! short-lived residue-sized buffers (one per digit × extended modulus).
//! Allocating them per op puts the allocator on the hot path; instead,
//! long-lived request workers recycle buffers here. A scoped helper
//! thread ([`crate::par::for_each_limb`]) lives for one call, so its pool
//! starts empty and is dropped with the thread. The pool is
//! thread-local (no locks, no cross-thread traffic) and bounded, so a
//! burst of large ops cannot pin memory forever. Buffers handed out are
//! always zeroed, so pooling is invisible to the arithmetic.

use std::cell::RefCell;

/// Upper bound on pooled buffers per thread; beyond this, `recycle`
/// simply drops. 64 covers digits × extended-moduli for the deepest
/// chain used in tests and benchmarks.
const MAX_POOLED: usize = 64;

thread_local! {
    static POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a zeroed buffer of exactly `len` elements from the pool
/// (allocating only when the pool is empty).
pub fn take_zeroed(len: usize) -> Vec<u64> {
    let mut buf = POOL.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    buf.clear();
    buf.resize(len, 0);
    buf
}

/// Returns a buffer to the current thread's pool for reuse.
pub fn recycle(buf: Vec<u64>) {
    if buf.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_come_back_zeroed_and_reused() {
        let mut a = take_zeroed(8);
        assert_eq!(a, vec![0u64; 8]);
        a.iter_mut().for_each(|x| *x = u64::MAX);
        let cap = a.capacity();
        recycle(a);
        let b = take_zeroed(4);
        assert_eq!(b, vec![0u64; 4]);
        assert!(b.capacity() >= cap.min(4), "reuses the recycled allocation");
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..(MAX_POOLED + 16) {
            recycle(vec![0u64; 4]);
        }
        let pooled = POOL.with(|p| p.borrow().len());
        assert!(pooled <= MAX_POOLED);
    }
}
