//! Seeded-violation fixture for rule 5, which covers `seda-core` only.

/// An error type outside the unified taxonomy.
pub struct OtherError;

/// Rule 5: a public core API whose `Result` does not carry `SedaError`.
pub fn untyped_error() -> Result<u32, OtherError> {
    Err(OtherError)
}
