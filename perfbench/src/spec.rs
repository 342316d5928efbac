//! The benchmark's recorded inputs: workload names and sizes, the paper's
//! reference values, and the default seed. They
//! live in `spec.json` beside this crate and are compiled in, so the file
//! that records them is the one the checks use.

use smtx_serve::json::Json;
use smtx_workloads::Kernel;

const SPEC_JSON: &str = include_str!("../spec.json");

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 5 grid behind a short fast-forward.
    Fig5Window,
    /// The Fig. 5 grid behind a deep fast-forward.
    Fig5DeepFf,
    /// The eight Fig. 7 three-application mixes.
    Fig7Smt,
    /// A closed-loop coordinator-plus-two-nodes fleet.
    FleetClosed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig5Window,
        Workload::Fig5DeepFf,
        Workload::Fig7Smt,
        Workload::FleetClosed,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Window => "fig5-window",
            Workload::Fig5DeepFf => "fig5-deep-ff",
            Workload::Fig7Smt => "fig7-smt",
            Workload::FleetClosed => "fleet-closed",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big a workload runs: the benchmark's size, or the smallest size the
/// self-test runs every workload at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// The self-test size.
    Tiny,
}

impl Size {
    fn key(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// A figure workload's window: the per-thread instruction budget before
/// miss-count scaling, and the functional fast-forward in front of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigureSize {
    /// `--insts`.
    pub insts: u64,
    /// `--skip`.
    pub skip: u64,
}

/// The fleet workload's job mix: `jobs` kernel-run specs of one kernel,
/// each with a seed drawn from `0..spread`, as `smtx-loadgen` draws them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSize {
    /// The kernel every spec runs.
    pub kernel: Kernel,
    /// Requested per-thread budget of every spec.
    pub insts: u64,
    /// Distinct seeds the specs draw from.
    pub spread: u64,
    /// Jobs one repetition submits.
    pub jobs: usize,
}

/// The parsed `spec.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    root: Json,
}

impl Spec {
    /// The compiled-in spec.
    ///
    /// # Panics
    ///
    /// Panics if `spec.json` is not valid JSON, which the self-test rules out.
    #[must_use]
    pub fn load() -> Spec {
        Spec {
            root: Json::parse(SPEC_JSON).expect("spec.json parses"),
        }
    }

    fn at(&self, path: &[&str]) -> &Json {
        let mut v = &self.root;
        for key in path {
            v = v
                .get(key)
                .unwrap_or_else(|| panic!("spec.json lacks {}", path.join(".")));
        }
        v
    }

    fn num(&self, path: &[&str]) -> f64 {
        self.at(path)
            .as_f64()
            .unwrap_or_else(|| panic!("spec.json {} is not a number", path.join(".")))
    }

    fn int(&self, path: &[&str]) -> u64 {
        self.at(path)
            .as_u64()
            .unwrap_or_else(|| panic!("spec.json {} is not an integer", path.join(".")))
    }

    /// The seed used when `--seed` is not given.
    #[must_use]
    pub fn default_seed(&self) -> u64 {
        self.int(&["default_seed"])
    }

    /// The paper's Fig. 5 column averages, in the figure's column order
    /// (traditional, multi(1), multi(3), hardware).
    #[must_use]
    pub fn paper_fig5(&self) -> [f64; 4] {
        ["traditional", "multi(1)", "multi(3)", "hardware"].map(|c| self.paper_fig5_average(c))
    }

    /// The paper's Fig. 5 average for one column.
    #[must_use]
    pub fn paper_fig5_average(&self, column: &str) -> f64 {
        self.num(&["paper", "fig5_averages", column])
    }

    /// The paper's Fig. 7 penalty reductions against traditional handling,
    /// in percent: (multithreaded, quick-start).
    #[must_use]
    pub fn paper_fig7(&self) -> (f64, f64) {
        (
            self.num(&["paper", "fig7_reduction_pct", "multi"]),
            self.num(&["paper", "fig7_reduction_pct", "quick"]),
        )
    }

    /// The fleet client's status-poll interval, milliseconds.
    #[must_use]
    pub fn poll_ms(&self) -> u64 {
        self.int(&["fleet", "poll_ms"])
    }

    /// The deadline every fleet job spec carries, milliseconds.
    #[must_use]
    pub fn deadline_ms(&self) -> u64 {
        self.int(&["fleet", "deadline_ms"])
    }

    fn sized(&self, w: Workload, size: Size, key: &str) -> &Json {
        self.at(&["workloads", w.name(), "sizes", size.key(), key])
    }

    fn sized_int(&self, w: Workload, size: Size, key: &str) -> u64 {
        self.sized(w, size, key)
            .as_u64()
            .unwrap_or_else(|| panic!("spec.json {} {key} is not an integer", w.name()))
    }

    /// A figure workload's window at `size`.
    #[must_use]
    pub fn figure(&self, w: Workload, size: Size) -> FigureSize {
        FigureSize {
            insts: self.sized_int(w, size, "insts"),
            skip: self.sized_int(w, size, "skip"),
        }
    }

    /// The fleet workload's job mix at `size`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown kernel name in `spec.json`.
    #[must_use]
    pub fn fleet(&self, size: Size) -> FleetSize {
        let w = Workload::FleetClosed;
        let name = self
            .sized(w, size, "kernel")
            .as_str()
            .expect("the fleet kernel is a string");
        FleetSize {
            kernel: Kernel::from_name(name).unwrap_or_else(|| panic!("unknown kernel `{name}`")),
            insts: self.sized_int(w, size, "insts"),
            spread: self.sized_int(w, size, "spread"),
            jobs: usize::try_from(self.sized_int(w, size, "jobs")).expect("jobs fits usize"),
        }
    }
}
