//! Fixture: an annotated exact-statistic source defined as an `impl` method, consumed through
//! a receiver (`view.exact_closed_wedges()`) from another crate
//! (`crates/dp/src/taint_method_bad.rs`). No findings in this file itself.

pub struct DegreeView {
    edges: u64,
}

impl DegreeView {
    pub fn new(edges: u64) -> DegreeView {
        DegreeView { edges }
    }

    // lint:source(sensitive)
    pub fn exact_closed_wedges(&self) -> u64 {
        self.edges * 3
    }
}
