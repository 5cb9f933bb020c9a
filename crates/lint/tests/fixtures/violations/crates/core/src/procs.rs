//! Fixture: ad-hoc process spawn in library code.

/// Fixture: documented ad-hoc process fan-out.
pub fn fan_out() {
    std::process::Command::new("solver");
}
