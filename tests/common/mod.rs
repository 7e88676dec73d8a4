//! Test-only helpers shared by the integration tests.

pub mod reference;
