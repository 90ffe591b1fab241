//! Numeric substrate for the #NFA FPRAS.
//!
//! The algorithms of *"A faster FPRAS for #NFA"* (PODS 2024) manipulate
//! quantities far outside the range of machine integers and floats:
//!
//! * exact language counts `|L(A_n)|` can be as large as `k^n` (so they
//!   overflow `u128` as soon as `n > 128` over a binary alphabet) — these
//!   are held in [`BigUint`];
//! * the approximate counts `N(qℓ)` and the sampler's acceptance
//!   probability `φ` (which starts near `1/N(qℓ)`) span the same dynamic
//!   range in both directions — these are held in [`ExtFloat`], a float
//!   with an `i64` exponent;
//! * `AppUnion`'s per-set trial counts are one multinomial draw, taken
//!   as exact binomials in [`binomial`];
//! * trial sizing, confidence intervals and uniformity measurements for
//!   the experiment harness live in [`stats`].
//!
//! No external big-number crate is used; both number types are implemented
//! here from scratch (see `DESIGN.md` §2).

pub mod biguint;
pub mod binomial;
pub mod categorical;
pub mod extfloat;
pub mod stats;

pub use biguint::BigUint;
pub use binomial::sample_multinomial;
pub use categorical::{
    fill_thresholds, sample_extfloat_weights, sample_extfloat_weights_with, sample_thresholds,
    sample_weights, WeightTable,
};
pub use extfloat::{ExtFloat, ExtFloatChain};
