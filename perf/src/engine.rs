//! The round-robin timing engine shared by the batch and streaming
//! workloads.
//!
//! A workload is a list of [`Case`]s, each with a few [`Variant`]s (the
//! measured configuration and its baseline). After one untimed warm-up call
//! of every variant, the engine runs rounds until the deadline (the warm-up
//! counts towards it); a round makes one timed call of every variant of
//! every case, so a burst of machine noise spreads over all of them instead
//! of landing on one.
//!
//! A run is cut into epochs, each with inputs drawn and pools set up afresh
//! and its own slice of the measuring time. The time of a variant is the
//! median over epochs of the epoch's median. On the reference machine the
//! median of a case moves by 5–10 % from one set-up to the next (buffer
//! placement, page luck) and by more from one drawn input to the next, which
//! no number of rounds on one set-up averages out; and the machine itself
//! runs a fifth slower for seconds at a time, which a mean over epochs would
//! pass on and their median does not, as long as most epochs are spared.

use std::time::{Duration, Instant};

use crate::stats::{gmean, median, Summary};
use crate::trace::Tracer;

pub struct Variant<'a> {
    pub label: &'static str,
    /// Makes one call and returns its duration, timed next to the call
    /// (inside the pool for pooled variants).
    pub run: Box<dyn FnMut() -> Duration + 'a>,
}

pub struct Case<'a> {
    pub name: String,
    /// Layer the spans around this case's calls are attributed to.
    pub layer: &'static str,
    /// Input items one call consumes.
    pub items: u64,
    pub variants: Vec<Variant<'a>>,
}

/// Milliseconds per timed call, by case and variant, split by whether the
/// round was traced.
pub struct Samples {
    pub cases: Vec<CaseSamples>,
    pub rounds: usize,
    /// Traced runs: wall time of each round with per-call spans over that of
    /// the round without them just before it, on the same inputs.
    pub traced_over_untraced: Vec<f64>,
}

pub struct CaseSamples {
    pub name: String,
    pub items: u64,
    pub variants: Vec<VariantSamples>,
}

pub struct VariantSamples {
    pub label: &'static str,
    /// `<case>.<label>`, the name of the spans around this variant's calls.
    pub span_name: String,
    /// The samples of each epoch, in ms: `[0]` from the rounds without
    /// per-call spans, `[1]` from the rounds with them.
    pub epochs: Vec<[Vec<f64>; 2]>,
}

impl VariantSamples {
    /// Median over epochs of the epoch's median, in ms; `None` if some
    /// epoch has no such sample.
    fn time_ms(&self, traced: bool) -> Option<f64> {
        let medians: Option<Vec<f64>> = self
            .epochs
            .iter()
            .map(|e| &e[usize::from(traced)])
            .map(|ms| (!ms.is_empty()).then(|| median(ms)))
            .collect();
        medians.map(|m| median(&m))
    }
}

/// Fewest rounds an epoch makes, however short its deadline.
pub const MIN_ROUNDS: usize = 2;

/// Runs the rounds of one epoch; `first_round` numbers them across epochs,
/// and `before_round` is called ahead of the warm-up and of every round (a
/// workload switches per-round inputs there). With an enabled `tracer`,
/// every round is a root span and rounds come in pairs on the same inputs
/// (`before_round` runs once per pair): the first records nothing else, the
/// second one span per call. That is the same fixed work without and with
/// the recorder, and the quotient of the two rounds' wall times, which
/// include `begin`/`end` of every span, is what recording costs.
pub fn measure(
    cases: &mut [Case<'_>],
    seconds: f64,
    first_round: usize,
    tracer: &mut Tracer,
    mut before_round: impl FnMut(),
) -> Samples {
    let alternate = tracer.enabled();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let warmup = tracer.begin("bench", "warmup", first_round as u64);
    tracer.set_paused(true);
    before_round();
    for case in cases.iter_mut() {
        for variant in case.variants.iter_mut() {
            (variant.run)();
        }
    }
    tracer.set_paused(false);
    tracer.end(warmup);
    let mut out: Vec<CaseSamples> = cases
        .iter()
        .map(|c| CaseSamples {
            name: c.name.clone(),
            items: c.items,
            variants: c
                .variants
                .iter()
                .map(|v| VariantSamples {
                    label: v.label,
                    span_name: format!("{}.{}", c.name, v.label),
                    epochs: vec![Default::default()],
                })
                .collect(),
        })
        .collect();
    let mut rounds = 0;
    let mut round_time = Duration::ZERO;
    let mut traced_over_untraced = Vec::new();
    // Another round starts only if at least half of it fits before the
    // deadline, so a run overshoots `seconds` as often as it undershoots.
    // With alternation, stop after an even number of rounds so both kinds
    // of round have the same count.
    while rounds < MIN_ROUNDS
        || Instant::now() + round_time / 2 < deadline
        || (alternate && rounds % 2 == 1)
    {
        let traced = alternate && rounds % 2 == 1;
        let root_name = if traced { "round" } else { "round.untraced" };
        let op = (first_round + rounds) as u64;
        let round_started = Instant::now();
        let root = tracer.begin("bench", root_name, op);
        if !traced {
            before_round();
        }
        tracer.set_paused(!traced);
        for (case, samples) in cases.iter_mut().zip(out.iter_mut()) {
            for (variant, vs) in case.variants.iter_mut().zip(samples.variants.iter_mut()) {
                let open = tracer.begin(case.layer, &vs.span_name, op);
                let ms = (variant.run)().as_secs_f64() * 1e3;
                tracer.end(open);
                vs.epochs[0][usize::from(traced)].push(ms);
            }
        }
        tracer.set_paused(false);
        tracer.end(root);
        let untraced_round = round_time;
        round_time = round_started.elapsed();
        if traced {
            traced_over_untraced.push(round_time.as_secs_f64() / untraced_round.as_secs_f64());
        }
        rounds += 1;
    }
    Samples {
        cases: out,
        rounds,
        traced_over_untraced,
    }
}

impl CaseSamples {
    fn variant(&self, label: &str) -> &VariantSamples {
        self.variants
            .iter()
            .find(|v| v.label == label)
            .unwrap_or_else(|| panic!("case {} has no variant {label}", self.name))
    }

    pub fn has(&self, label: &str) -> bool {
        self.variants.iter().any(|v| v.label == label)
    }

    /// Time of one call of `label` in ms, from the rounds without per-call
    /// spans: the median over epochs of the epoch's median.
    pub fn time_ms(&self, label: &str) -> f64 {
        self.variant(label)
            .time_ms(false)
            .expect("every epoch makes untraced rounds")
    }

    /// The same from the rounds with per-call spans (traced runs only).
    pub fn traced_ms(&self, label: &str) -> f64 {
        self.variant(label)
            .time_ms(true)
            .expect("a traced run makes traced rounds")
    }

    /// Quartiles and count of all untraced samples of `label`.
    pub fn summary(&self, label: &str) -> Summary {
        let all: Vec<f64> = self
            .variant(label)
            .epochs
            .iter()
            .flat_map(|e| e[0].iter().copied())
            .collect();
        Summary::of(&all)
    }

    /// time(`num`) ÷ time(`den`).
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        self.time_ms(num) / self.time_ms(den)
    }

    pub fn traced_ratio(&self, num: &str, den: &str) -> f64 {
        self.traced_ms(num) / self.traced_ms(den)
    }
}

impl Samples {
    /// Appends a later epoch (same cases, same variants).
    pub fn absorb(&mut self, later: Samples) {
        assert_eq!(
            self.cases.len(),
            later.cases.len(),
            "epochs run the same cases"
        );
        self.rounds += later.rounds;
        self.traced_over_untraced.extend(later.traced_over_untraced);
        for (mine, theirs) in self.cases.iter_mut().zip(later.cases) {
            assert_eq!(mine.name, theirs.name, "epochs run the same cases");
            for (v, w) in mine.variants.iter_mut().zip(theirs.variants) {
                assert_eq!(v.label, w.label, "epochs run the same variants");
                v.epochs.extend(w.epochs);
            }
        }
    }

    pub fn case(&self, name: &str) -> Option<&CaseSamples> {
        self.cases.iter().find(|c| c.name == name)
    }

    /// The gate's view of a run: `op` is the measured variant, and the
    /// baseline ratio is `num` ÷ `den`, per case.
    pub fn end_to_end(&self, op: &str, num: &str, den: &str) -> EndToEnd {
        let medians: Vec<f64> = self.cases.iter().map(|c| c.time_ms(op)).collect();
        let ratios: Vec<f64> = self.cases.iter().map(|c| c.ratio(num, den)).collect();
        EndToEnd {
            op_ms: gmean(&medians),
            total_ms: medians.iter().sum(),
            over_baseline: gmean(&ratios),
        }
    }

    /// (round with per-call spans ÷ round without) − 1, the median over all
    /// pairs of rounds: what the recorder costs the run. Round times are
    /// taken around `begin`/`end`, so the recorder's own work is inside.
    pub fn trace_overhead_share(&self) -> f64 {
        if self.traced_over_untraced.is_empty() {
            0.0
        } else {
            median(&self.traced_over_untraced) - 1.0
        }
    }
}

/// The end-to-end numbers every workload reports besides `setup_s`.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Geometric mean over cases of the time of one operation.
    pub op_ms: f64,
    /// Sum over cases of the same times: one pass over the workload.
    pub total_ms: f64,
    /// Geometric mean over cases of measured ÷ baseline.
    pub over_baseline: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed<'a>(label: &'static str, ms: u64) -> Variant<'a> {
        Variant {
            label,
            run: Box::new(move || Duration::from_millis(ms)),
        }
    }

    #[test]
    fn rounds_alternate_and_ratios_follow_medians() {
        let mut cases = vec![
            Case {
                name: "a".into(),
                layer: "suite",
                items: 10,
                variants: vec![fixed("par", 4), fixed("seq", 2)],
            },
            Case {
                name: "b".into(),
                layer: "suite",
                items: 10,
                variants: vec![fixed("par", 9), fixed("seq", 1)],
            },
        ];
        let mut tracer = Tracer::new(true, 0, Instant::now(), 64);
        let mut input_switches = 0;
        let s = measure(&mut cases, 0.0, 0, &mut tracer, || input_switches += 1);
        assert_eq!(s.rounds % 2, 0);
        assert_eq!(
            input_switches,
            1 + s.rounds / 2,
            "once for the warm-up, once per pair of rounds"
        );
        assert!(s.rounds >= MIN_ROUNDS);
        let a = s.case("a").unwrap();
        assert_eq!(a.variants[0].epochs.len(), 1);
        assert_eq!(a.variants[0].epochs[0][0].len(), s.rounds / 2);
        assert_eq!(a.variants[0].epochs[0][1].len(), s.rounds / 2);
        let e = s.end_to_end("par", "par", "seq");
        assert!((e.op_ms - 6.0).abs() < 1e-9);
        assert!((e.total_ms - 13.0).abs() < 1e-9);
        assert!((e.over_baseline - (2.0f64 * 9.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.traced_over_untraced.len(), s.rounds / 2);
        assert!(s.trace_overhead_share() > -1.0);
        // Every round left a root span; traced rounds one child per call.
        let spans = tracer.into_spans();
        let roots = spans.iter().filter(|s| s.parent == 0).count();
        assert_eq!(
            roots,
            s.rounds + 1,
            "one root per round, one for the warm-up"
        );
        assert_eq!(spans.len(), roots + 4 * (s.rounds / 2));
        assert!(crate::trace::root_coverage(&spans, 0) > 0.0);
    }
}
