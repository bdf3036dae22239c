//! Fixture: a deny-listed value laundered through a rename reaches an append-to-String JSON
//! writer, which renders it as surely as `Json::` construction does.
pub fn render_renamed(exact_triangle_count: u64, out: &mut String) {
    let laundered = exact_triangle_count;
    kronpriv_json::push_json_number(out, laundered as f64);
}
