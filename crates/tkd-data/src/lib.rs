//! Workload generation for the TKD reproduction (§5 of the paper).
//!
//! * [`synthetic`] — the paper's **IND** (independent) and **AC**
//!   (anti-correlated) distributions, following the classical methodology of
//!   Börzsönyi et al. (ICDE 2001), plus a correlated (CO) family; all with
//!   controlled dimensional cardinality `c` and seedable determinism.
//! * [`missing`] — missingness injectors: **MCAR** (the paper's random
//!   removal), plus MAR and NMAR variants for robustness experiments (the
//!   paper's §3 discusses all three mechanisms of Little & Rubin).
//! * [`simulators`] — synthetic stand-ins for the paper's three real
//!   datasets (MovieLens, NBA, Zillow), matching their published shape:
//!   cardinality, dimensionality, per-dimension domains and missing rate.
//!
//! All values follow the workspace convention: **smaller is better**.

#![warn(missing_docs)]

pub mod missing;
pub mod simulators;
pub mod synthetic;

pub use simulators::{movielens_like, nba_like, zillow_like};
pub use synthetic::{generate, Distribution, SyntheticConfig};
