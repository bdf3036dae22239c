//! Fixture: a sensitive source method, reached as `view.method(..)`, flows into Json
//! construction — once through a binding and once inline.
pub fn publish_wedges(view: &DegreeView) -> Json {
    let closed = view.exact_closed_wedges();
    Json::Number(closed as f64)
}

pub fn publish_wedges_inline(edges: u64) -> Json {
    Json::Number(DegreeView::new(edges).exact_closed_wedges() as f64)
}
