//! Shared helpers for the dordis-net integration suites.

/// The compute-plane worker counts every equivalence suite runs under:
/// serial (`0`) and pooled (`2`) unmasking. Both must produce bit-equal
/// rounds; editing this one const widens (or narrows) every suite
/// together.
pub const WORKERS: [usize; 2] = [0, 2];
