//! smtx-lint integration suite: the fixture corpora (every rule fires at
//! its planted lines on a firing tree and stays silent on the clean
//! tree), self-application over the real workspace, and mutation tests
//! that plant one concurrency bug each and assert exactly one finding.

use std::path::{Path, PathBuf};

use smtx_check::{analyze_sources, lint_root, workspace_sources, Analysis, RULE_NAMES};

/// `tests/fixtures` plants one token-rule violation per file;
/// `tests/fixtures2` plants the interprocedural ones.
fn fixture(corpus: &str, which: &str) -> Analysis {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(corpus).join(which);
    lint_root(&root).expect("analyze fixture tree")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn count(a: &Analysis, rule: &str) -> usize {
    a.findings.iter().filter(|f| f.rule == rule && !f.allowed).count()
}

/// `(rule, path, line)` of every unallowed finding, in reporting order.
fn sites(a: &Analysis) -> Vec<(&str, &str, usize)> {
    a.errors().iter().map(|f| (f.rule, f.path.as_str(), f.line)).collect()
}

#[test]
fn every_token_rule_fires_on_its_fixture() {
    let a = fixture("tests/fixtures", "firing");
    assert_eq!(a.files, 5, "one firing fixture per rule");
    for rule in &RULE_NAMES[..5] {
        assert!(count(&a, rule) > 0, "rule {rule} found nothing; got {:#?}", a.findings);
    }
}

#[test]
fn token_fixtures_fire_at_the_planted_lines() {
    let a = fixture("tests/fixtures", "firing");
    let find = |rule: &str| a.findings.iter().find(|v| v.rule == rule).expect(rule);
    assert_eq!(find("no-unordered-iteration").path, "crates/bench/src/runner.rs");
    assert_eq!(find("no-unordered-iteration").line, 3);
    assert_eq!(find("no-wallclock-in-core").path, "crates/core/src/machine/mod.rs");
    assert_eq!(find("no-float-in-model").path, "crates/core/src/stats.rs");
    assert_eq!(find("no-float-in-model").line, 5);
    assert_eq!(find("no-silent-narrowing").path, "crates/bench/src/report.rs");
    assert_eq!(find("no-silent-narrowing").line, 4);
    assert_eq!(find("no-unwrap-in-serve").path, "crates/serve/src/http.rs");
    assert_eq!(find("no-unwrap-in-serve").line, 4);
    assert_eq!(
        sites(&a),
        [
            ("no-unordered-iteration", "crates/bench/src/runner.rs", 3),
            ("no-unordered-iteration", "crates/bench/src/runner.rs", 6),
            ("no-wallclock-in-core", "crates/core/src/machine/mod.rs", 3),
            ("no-wallclock-in-core", "crates/core/src/machine/mod.rs", 6),
            ("no-float-in-model", "crates/core/src/stats.rs", 5),
            ("no-silent-narrowing", "crates/bench/src/report.rs", 4),
            ("no-unwrap-in-serve", "crates/serve/src/http.rs", 4),
            ("no-unwrap-in-serve", "crates/serve/src/http.rs", 4),
        ]
    );
}

#[test]
fn token_clean_tree_is_silent() {
    let a = fixture("tests/fixtures", "clean");
    assert_eq!(a.files, 5);
    assert!(a.errors().is_empty(), "clean fixtures must not fire: {:#?}", a.errors());
}

#[test]
fn every_interprocedural_rule_fires_on_its_fixture() {
    let a = fixture("tests/fixtures2", "firing");
    for rule in &RULE_NAMES[5..] {
        assert!(count(&a, rule) > 0, "rule {rule} found nothing; got {:#?}", a.findings);
    }
    // The digest fixture fires in both directions: a stepping-read field
    // left out of digest(), and a scheduling knob wrongly included.
    let digest: Vec<_> = a.findings.iter().filter(|f| f.rule == "digest-taint").collect();
    assert_eq!(digest.len(), 2, "{digest:#?}");
    assert!(digest.iter().any(|f| f.message.contains("`window`")));
    assert!(digest.iter().any(|f| f.message.contains("`idle_skip`")));
    // The I/O fixture fires both directly and through a callee.
    assert_eq!(count(&a, "no-lock-across-io"), 2, "{:#?}", a.findings);
    assert_eq!(
        sites(&a),
        [
            ("lock-order", "crates/fleet/src/coord.rs", 15),
            ("no-lock-across-io", "crates/bench/src/runner.rs", 12),
            ("no-lock-across-io", "crates/bench/src/runner.rs", 18),
            ("no-blocking-in-reactor", "crates/serve/src/server.rs", 17),
            ("digest-taint", "crates/core/src/config.rs", 15),
            ("digest-taint", "crates/core/src/machine/mod.rs", 5),
        ]
    );
}

#[test]
fn interprocedural_clean_tree_has_no_errors_but_keeps_the_justified_finding() {
    let a = fixture("tests/fixtures2", "clean");
    assert!(a.errors().is_empty(), "clean fixtures fired: {:#?}", a.errors());
    // The serialized-append pattern is still *seen*, just suppressed.
    assert!(
        a.findings.iter().any(|f| f.allowed && f.rule == "no-lock-across-io"),
        "expected a recorded-but-allowed finding; got {:#?}",
        a.findings
    );
}

#[test]
fn the_workspace_itself_is_clean() {
    // The CI gate in executable form: the real tree stays lint-clean.
    let a = lint_root(&repo_root()).expect("analyze workspace");
    assert!(a.files > 50, "walker found only {} files", a.files);
    assert!(a.errors().is_empty(), "workspace lint violations: {:#?}", a.errors());
    // The one true positive is justified, not invisible: append_segment
    // writes the trace under the trace-file lock on purpose.
    assert!(
        a.findings
            .iter()
            .any(|f| f.allowed
                && f.rule == "no-lock-across-io"
                && f.path == "crates/bench/src/runner.rs"),
        "expected the justified append_segment finding; got {:#?}",
        a.findings
    );
}

#[test]
fn digest_taint_rederives_the_digest_membership() {
    let a = lint_root(&repo_root()).expect("analyze workspace");
    let expected = [
        "dtlb_entries",
        "emulate_divu",
        "fetch_buffer",
        "fetch_latency",
        "fu",
        "issue_delay",
        "limits",
        "mechanism",
        "mem",
        "threads",
        "width",
        "window",
    ];
    assert_eq!(a.digest.digested, expected, "digest() membership drifted");
    // Every field read during stepping is digested (rule would fire
    // otherwise), and everything digested is also genuinely read there —
    // a digest-only field would be dead weight worth a look.
    assert_eq!(a.digest.read, a.digest.digested);
    for f in &a.digest.digested {
        assert!(a.digest.fields.contains(f), "digest writes unknown field {f}");
    }
}

/// The workspace sources with `edit` applied to the file at `path`.
fn mutated(path: &str, edit: impl FnOnce(&mut String)) -> Analysis {
    let mut files = workspace_sources(&repo_root()).expect("read workspace");
    let file = files.iter_mut().find(|(p, _)| p == path).expect("file present");
    edit(&mut file.1);
    analyze_sources(&files)
}

#[test]
fn lock_order_mutation_produces_exactly_one_finding() {
    let baseline = analyze_sources(&workspace_sources(&repo_root()).expect("read workspace"));
    assert!(baseline.errors().is_empty(), "baseline dirty: {:#?}", baseline.errors());
    // Plant the reverse edge: take a checkpoint shard lock, then the
    // checkpoint LRU lock (`cache_checkpoint` takes them in the opposite
    // order when it evicts).
    let a = mutated("crates/bench/src/runner.rs", |src| {
        src.push_str(
            "\nimpl Runner {\n    \
             fn cross(&self, key: CkKey, ck: Arc<Checkpoint>) -> Arc<Checkpoint> {\n        \
             self.checkpoints.get_or_insert_with(key, || {\n            \
             let _lru = self.ck_lru.lock().expect(\"lru\");\n            ck\n        })\n    }\n}\n",
        );
    });
    let errors = a.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "lock-order");
    assert!(errors[0].message.contains("runner.ck_lru"), "{}", errors[0].message);
    assert!(errors[0].message.contains("runner.checkpoints"), "{}", errors[0].message);
}

#[test]
fn reactor_blocking_mutation_produces_exactly_one_finding() {
    let anchor = "    fn route(&self, req: &Request) -> Outcome {";
    let a = mutated("crates/serve/src/server.rs", |src| {
        assert!(src.contains(anchor), "route anchor moved");
        *src = src.replacen(
            anchor,
            "    fn route(&self, req: &Request) -> Outcome {\n        \
             std::thread::sleep(core::time::Duration::from_millis(1));",
            1,
        );
    });
    let errors = a.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "no-blocking-in-reactor");
    assert!(errors[0].message.contains("sleep"), "{}", errors[0].message);
}

#[test]
fn digest_mutations_fire_in_both_directions() {
    let write = "        h.write_usize(self.dtlb_entries);\n";
    // Dropping a digest write of a stepping-read field is caught.
    let a = mutated("crates/core/src/config.rs", |src| {
        assert!(src.contains(write), "dtlb_entries digest write moved");
        *src = src.replacen(write, "", 1);
    });
    let errors = a.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "digest-taint");
    assert!(errors[0].message.contains("dtlb_entries"), "{}", errors[0].message);

    // Digesting a scheduling-only knob is caught.
    let a = mutated("crates/core/src/config.rs", |src| {
        *src = src.replacen(write, &format!("{write}        h.write_bool(self.idle_skip);\n"), 1);
    });
    let errors = a.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "digest-taint");
    assert!(errors[0].message.contains("idle_skip"), "{}", errors[0].message);
}
