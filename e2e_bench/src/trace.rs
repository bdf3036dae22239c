//! Per-op timelines, taken from outside the program: a bench-owned [`ProgressSink`] for
//! in-process releases, and the `/events` stream for server jobs. Both become a list of
//! timestamped [`Mark`]s, from which the per-layer times of one op are read.

use kronpriv::kronpriv_obs::{ProgressEvent, ProgressSink};
use kronpriv_json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Per-layer values of one op, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One observed point in an op's life.
#[derive(Debug, Clone, PartialEq)]
pub enum Mark {
    /// A job worker picked the job up.
    Running,
    /// A pipeline stage began.
    Started(String),
    /// A pipeline stage ended.
    Finished(String),
    /// One KronFit gradient step of the given chain ended.
    ChainStep(usize),
    /// The job reached its terminal event.
    Terminal,
    /// Any other event.
    Other,
}

impl Mark {
    /// The mark of one `/events` document.
    pub fn of_event(doc: &Json) -> Mark {
        let stage = || doc.get("stage").and_then(Json::as_str).unwrap_or_default().to_string();
        match doc.get("event").and_then(Json::as_str) {
            Some("running") => Mark::Running,
            Some("stage_started") => Mark::Started(stage()),
            Some("stage_finished") => Mark::Finished(stage()),
            Some("chain_step") => Mark::ChainStep(
                doc.get("chain").and_then(Json::as_f64).map_or(usize::MAX, |c| c as usize),
            ),
            Some("done") | Some("failed") => Mark::Terminal,
            _ => Mark::Other,
        }
    }
}

/// A sink that timestamps every progress event as it is emitted.
#[derive(Debug, Default)]
pub struct TimingSink {
    marks: Mutex<Vec<(Instant, Mark)>>,
}

impl TimingSink {
    /// The marks recorded so far, in emission order.
    pub fn into_marks(self) -> Vec<(Instant, Mark)> {
        self.marks.into_inner().expect("timing sink poisoned")
    }
}

impl ProgressSink for TimingSink {
    fn emit(&self, event: &ProgressEvent) {
        let now = Instant::now();
        let mark = match event {
            ProgressEvent::StageStarted { stage } => Mark::Started(stage.to_string()),
            ProgressEvent::StageFinished { stage } => Mark::Finished(stage.to_string()),
            ProgressEvent::ChainStep { chain, .. } => Mark::ChainStep(*chain),
        };
        self.marks.lock().expect("timing sink poisoned").push((now, mark));
    }
}

/// Milliseconds from `from` to `to` (zero if `to` is earlier).
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// The metric each pipeline stage's duration is reported under.
fn stage_metric(stage: &str) -> Option<&'static str> {
    match stage {
        "degree_release" => Some("dp.degree_release_ms"),
        "triangle_release" => Some("dp.triangle_release_ms"),
        "fit" => Some("estimate.fit_ms"),
        "sample" => Some("skg.sample_ms"),
        "kronfit" => Some("estimate.kronfit_ms"),
        _ => None,
    }
}

/// Adds the stage durations and KronFit step statistics of one op to `layers`. Returns the
/// summed stage time plus the first stage start and last stage end, or `None` when the
/// timeline holds no complete stage.
pub fn stage_layers(
    marks: &[(Instant, Mark)],
    layers: &mut Layers,
) -> Option<(f64, Instant, Instant)> {
    let mut open: Vec<(&str, Instant)> = Vec::new();
    let mut span: Option<(Instant, Instant)> = None;
    let mut stage_sum = 0.0;
    let mut last_step: BTreeMap<usize, Instant> = BTreeMap::new();
    let mut step_gaps = Vec::new();
    for (at, mark) in marks {
        match mark {
            Mark::Started(stage) => open.push((stage, *at)),
            Mark::Finished(stage) => {
                let Some(pos) = open.iter().rposition(|(name, _)| name == stage) else { continue };
                let (_, started) = open.remove(pos);
                let took = ms(started, *at);
                stage_sum += took;
                if let Some(metric) = stage_metric(stage) {
                    *layers.entry(metric).or_insert(0.0) += took;
                }
                span = Some(span.map_or((started, *at), |(first, _)| (first, *at)));
            }
            Mark::ChainStep(chain) => {
                if let Some(previous) = last_step.insert(*chain, *at) {
                    step_gaps.push(ms(previous, *at));
                }
            }
            _ => {}
        }
    }
    let steps = marks.iter().filter(|(_, m)| matches!(m, Mark::ChainStep(_))).count();
    if steps > 0 {
        layers.insert("estimate.chain_steps", steps as f64);
        if !step_gaps.is_empty() {
            layers.insert("estimate.kronfit_step_ms", crate::measure::median(&step_gaps));
        }
    }
    span.map(|(first, last)| (stage_sum, first, last))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stages_and_chain_steps_become_layers() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let marks = vec![
            (at(1), Mark::Running),
            (at(3), Mark::Started("kronfit".into())),
            (at(5), Mark::ChainStep(0)),
            (at(6), Mark::ChainStep(1)),
            (at(9), Mark::ChainStep(0)),
            (at(11), Mark::ChainStep(1)),
            (at(13), Mark::Finished("kronfit".into())),
            (at(14), Mark::Terminal),
        ];
        let mut layers = Layers::new();
        let (sum, first, last) = stage_layers(&marks, &mut layers).unwrap();
        assert_eq!((sum, first, last), (10.0, at(3), at(13)));
        assert_eq!(layers["estimate.kronfit_ms"], 10.0);
        assert_eq!(layers["estimate.chain_steps"], 4.0);
        assert_eq!(layers["estimate.kronfit_step_ms"], 4.5);
    }

    #[test]
    fn event_documents_map_onto_marks() {
        let mark = |text: &str| Mark::of_event(&Json::parse(text).unwrap());
        assert_eq!(mark(r#"{"event":"running"}"#), Mark::Running);
        assert_eq!(mark(r#"{"event":"stage_started","stage":"fit"}"#), Mark::Started("fit".into()));
        assert_eq!(mark(r#"{"event":"chain_step","chain":2,"step":0}"#), Mark::ChainStep(2));
        assert_eq!(mark(r#"{"event":"done","result":{}}"#), Mark::Terminal);
        assert_eq!(mark(r#"{"event":"queued","job_id":1}"#), Mark::Other);
    }
}
