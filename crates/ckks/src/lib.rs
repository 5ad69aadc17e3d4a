//! A from-scratch RNS-CKKS homomorphic encryption scheme.
//!
//! This crate is the execution substrate of the HECATE reproduction,
//! standing in for Microsoft SEAL. It implements the full RNS variant of
//! CKKS (Cheon–Kim–Kim–Song) over `Z_Q[X]/(X^N + 1)`:
//!
//! - [`params`] — parameter sets, modulus chains, 128-bit security table;
//! - [`encoder`] — canonical-embedding encoding of real vectors;
//! - [`keys`] — secret/public keys and RNS-digit key switching with a
//!   special prime (relinearization and Galois keys);
//! - [`encrypt`] — RLWE encryption and decryption;
//! - [`eval`] — the levelled evaluator: add, multiply, rotate, `rescale`,
//!   and `modswitch`, with the paper's operand constraints enforced.
//!
//! The crucial property for the HECATE paper is the *latency structure*: an
//! operation on a ciphertext at rescaling level `k` processes `L+1−k` RNS
//! primes, so computation gets cheaper as the level rises — this is what
//! makes performance-aware scale management profitable.
//!
//! # Example
//!
//! Encrypt two vectors, multiply them, rescale, and decrypt:
//!
//! ```
//! use hecate_ckks::params::CkksParams;
//! use hecate_ckks::encoder::CkksEncoder;
//! use hecate_ckks::keys::KeyGenerator;
//! use hecate_ckks::encrypt::{Encryptor, Decryptor};
//! use hecate_ckks::eval::{EvalKeys, Evaluator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = CkksParams::new(128, 45, 30, 1, false)?; // toy ring, not secure
//! let encoder = CkksEncoder::new(&params);
//! let mut kg = KeyGenerator::new(&params, 42);
//! let pk = kg.public_key();
//! let keys = EvalKeys::generate(&mut kg, &[2], &[]);
//! let mut encryptor = Encryptor::new(&params, pk, 7);
//! let decryptor = Decryptor::new(&params, kg.secret_key().clone());
//! let eval = Evaluator::new(&params, keys);
//!
//! let a = encryptor.encrypt(&encoder.encode(&[3.0], 30.0, 0)?);
//! let b = encryptor.encrypt(&encoder.encode(&[2.0], 30.0, 0)?);
//! let product = eval.rescale(&eval.mul(&a, &b)?)?;
//! let out = encoder.decode(&decryptor.decrypt(&product));
//! assert!((out[0] - 6.0).abs() < 1e-3);
//! # Ok(())
//! # }
//! ```
//!
//! # Security note
//!
//! The RNG is a seeded xoshiro256++, not a CSPRNG, and small test rings are
//! far below 128-bit security. This crate is a research artifact for
//! reproducing compiler results, not a production cryptography library.

#![warn(missing_docs)]

pub mod cipher;
pub mod encoder;
pub mod encrypt;
pub mod eval;
pub mod keys;
pub mod pack;
pub mod params;

pub use cipher::{Ciphertext, Plaintext};
pub use encoder::CkksEncoder;
pub use encrypt::{Decryptor, Encryptor};
pub use eval::{EvalKeys, Evaluator};
pub use keys::{HoistedDecomp, KeyGenerator, PublicKey, SecretKey};
pub use pack::{pack_blocks, unpack_block};
pub use params::CkksParams;
