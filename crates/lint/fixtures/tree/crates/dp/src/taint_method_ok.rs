//! Fixture (near miss): the same method-call flow as `taint_method_bad.rs`, routed through a
//! declared sanitizer — no findings.

/// The DP release boundary for this fixture.
// lint:sanitizer
pub fn release_wedges(v: f64) -> f64 {
    v + 1.0
}

pub fn publish_wedges_ok(view: &DegreeView) -> Json {
    let released = release_wedges(view.exact_closed_wedges() as f64);
    Json::Number(released)
}
