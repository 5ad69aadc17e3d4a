//! Number-theoretic substrate for the HECATE RNS-CKKS stack.
//!
//! This crate provides the arithmetic machinery that the `hecate-ckks`
//! scheme implementation is built on:
//!
//! - [`modular`] — arithmetic modulo word-sized primes, including Shoup
//!   multiplication for hot loops with a fixed multiplicand;
//! - [`prime`] — Miller–Rabin primality testing and generation of
//!   NTT-friendly primes `p ≡ 1 (mod 2N)`;
//! - [`ntt`] — the negacyclic number-theoretic transform over
//!   `Z_q[X]/(X^N + 1)`;
//! - [`fft`] — a complex FFT used by the CKKS canonical embedding;
//! - [`rng`] — deterministic, seedable pseudo-random generators and the
//!   samplers (uniform, ternary, centered binomial) required by RLWE;
//! - [`rns`] — residue-number-system bases with the precomputations for
//!   rescaling and key-switch mod-down;
//! - [`poly`] — polynomials in RNS representation with NTT-domain tracking,
//!   and the centered lift that decodes them without multi-precision
//!   arithmetic;
//! - [`par`] — striping over independent RNS limbs, and the one scoped
//!   spawn-and-join helper every thread inside a request runs on;
//! - [`scratch`] — a thread-local pool of scratch residue buffers.
//!
//! Everything here is deterministic and has no dependencies, which keeps the
//! compiler and backend layers reproducible.
//!
//! # Example
//!
//! ```
//! use hecate_math::prime::generate_ntt_primes;
//! use hecate_math::ntt::NttTable;
//!
//! // A 40-bit NTT-friendly prime for ring degree 1024.
//! let p = generate_ntt_primes(40, 1024, 1, &[])[0];
//! assert_eq!(p % 2048, 1);
//! let table = NttTable::new(p, 1024);
//! assert_eq!(table.degree(), 1024);
//! ```

#![warn(missing_docs)]

pub mod fft;
pub mod modular;
pub mod ntt;
pub mod par;
pub mod poly;
pub mod prime;
pub mod rng;
pub mod rns;
pub mod scratch;
