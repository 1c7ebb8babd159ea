//! # dvmp-forecast
//!
//! Workload prediction and spare-server control (Section IV of the paper).
//!
//! The paper models VM arrivals as a non-homogeneous Poisson process and
//! keeps just enough spare (idle-but-on) servers that fewer than 5 % of
//! requests have to queue:
//!
//! - [`nhpp`]: NHPP machinery — piecewise-constant rate functions, exact
//!   cumulative intensity, and an exact sampler (used to validate the
//!   estimator against known ground truth);
//! - [`leemis`]: Leemis's (1991) nonparametric estimator of the cumulative
//!   intensity function from superposed past realizations (Eq. 6–7's
//!   `Λ(t, t+T)` estimate);
//! - [`poisson`]: exact Poisson CDF/quantile, giving the smallest
//!   `n_arrival` with `P(arrivals > n) ≤ ε` (the paper uses ε = 0.05);
//! - [`spare`]: the per-tick decision as a pure function (Eq. 8 over the
//!   arrival forecast, the scheduled departures and the average VMs per
//!   PM `N_ave(t)`), which PMs enforce it, and the controller's state.

pub mod leemis;
pub mod nhpp;
pub mod poisson;
pub mod spare;

pub use leemis::LeemisEstimator;
pub use nhpp::PiecewiseRate;
