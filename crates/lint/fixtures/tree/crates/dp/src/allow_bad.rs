// FIXTURE (never compiled): re-allowing workspace-table lints.

// VIOLATION: unwrap latitude comes from clippy.toml, never from attributes.
#[allow(clippy::unwrap_used)]
pub fn sneaky_unwrap(v: Option<u32>) -> u32 {
    v.unwrap()
}

// VIOLATION: unsafe_code may not be re-allowed anywhere in the workspace.
#[allow(unsafe_code)]
pub fn sneaky_unsafe() {}
