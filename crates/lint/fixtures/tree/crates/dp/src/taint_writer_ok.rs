//! Fixture (near miss): the JSON writers fed a sanitized value and an untainted one — no
//! findings.

/// The DP release boundary for this fixture.
// lint:sanitizer
pub fn release_count(v: f64) -> f64 {
    v + 1.0
}

pub fn render_released(exact_triangle_count: u64, nodes: u64, out: &mut String) {
    let released = release_count(exact_triangle_count as f64);
    push_json_number(out, released);
    push_json_str(out, "nodes");
    push_json_number(out, nodes as f64);
}
