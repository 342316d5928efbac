//! smtx-lint2 integration suite: fixture corpus, self-application over
//! the real workspace, summary-cache round-trip, and mutation tests
//! that plant one concurrency bug each and assert exactly one finding.

use std::path::{Path, PathBuf};

use smtx_check::rules2::{analyze_sources, lint2_root, Analysis, RULE2_NAMES, SCOPE2};
use smtx_check::summaries::CACHE_VERSION;

fn fixture_root(which: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures2").join(which)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every in-scope workspace source as `(relative path, text)`, for
/// in-memory mutation testing.
fn workspace_sources() -> Vec<(String, String)> {
    fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .expect("read src dir")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                collect(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    let root = repo_root();
    let mut files = Vec::new();
    for scope in SCOPE2 {
        let mut paths = Vec::new();
        collect(&root.join(scope), &mut paths);
        for p in paths {
            let rel = p
                .strip_prefix(&root)
                .expect("under root")
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, std::fs::read_to_string(&p).expect("read source")));
        }
    }
    files
}

fn count(a: &Analysis, rule: &str) -> usize {
    a.findings.iter().filter(|f| f.rule == rule && !f.allowed).count()
}

#[test]
fn every_rule_fires_on_its_fixture() {
    let a = lint2_root(&fixture_root("firing"), None).expect("analyze firing tree");
    for rule in RULE2_NAMES {
        assert!(
            a.findings.iter().any(|f| f.rule == rule && !f.allowed),
            "rule {rule} found nothing; got {:#?}",
            a.findings
        );
    }
    // The digest fixture fires in both directions: a stepping-read field
    // left out of digest(), and a scheduling knob wrongly included.
    let digest: Vec<_> = a.findings.iter().filter(|f| f.rule == "digest-taint").collect();
    assert_eq!(digest.len(), 2, "{digest:#?}");
    assert!(digest.iter().any(|f| f.message.contains("`window`")));
    assert!(digest.iter().any(|f| f.message.contains("`idle_skip`")));
    // The I/O fixture fires both directly and through a callee.
    assert_eq!(count(&a, "no-lock-across-io"), 2, "{:#?}", a.findings);
}

#[test]
fn clean_tree_has_no_errors_but_keeps_the_justified_finding() {
    let a = lint2_root(&fixture_root("clean"), None).expect("analyze clean tree");
    assert!(a.errors().is_empty(), "clean fixtures fired: {:#?}", a.errors());
    // The serialized-append pattern is still *seen*, just suppressed.
    assert!(
        a.findings.iter().any(|f| f.allowed && f.rule == "no-lock-across-io"),
        "expected a recorded-but-allowed finding; got {:#?}",
        a.findings
    );
}

#[test]
fn the_workspace_itself_is_lint2_clean() {
    let a = lint2_root(&repo_root(), None).expect("analyze workspace");
    assert!(a.files > 40, "walker found only {} files", a.files);
    assert!(a.errors().is_empty(), "workspace lint2 violations: {:#?}", a.errors());
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
    let a = lint2_root(&repo_root(), None).expect("analyze workspace");
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

#[test]
fn summary_cache_round_trips_and_reuses() {
    let cache = std::env::temp_dir().join(format!("smtx-lint2-cache-{}.txt", std::process::id()));
    let _ = std::fs::remove_file(&cache);
    let cold = lint2_root(&repo_root(), Some(&cache)).expect("cold run");
    let text = std::fs::read_to_string(&cache).expect("cache written");
    assert!(text.starts_with(CACHE_VERSION), "bad cache header");
    let warm = lint2_root(&repo_root(), Some(&cache)).expect("warm run");
    assert_eq!(cold.findings, warm.findings, "cache changed the analysis");
    assert_eq!(cold.digest.digested, warm.digest.digested);
    let _ = std::fs::remove_file(&cache);
}

#[test]
fn lock_order_mutation_produces_exactly_one_finding() {
    let mut files = workspace_sources();
    let baseline = analyze_sources(&files);
    assert!(baseline.errors().is_empty(), "baseline dirty: {:#?}", baseline.errors());
    // Plant the reverse edge: take a checkpoint shard lock, then the
    // checkpoint LRU lock (`cache_checkpoint` takes them in the opposite
    // order when it evicts).
    let runner = files
        .iter_mut()
        .find(|(p, _)| p == "crates/bench/src/runner.rs")
        .expect("runner.rs present");
    runner.1.push_str(
        "\nimpl Runner {\n    \
         fn cross(&self, key: CkKey, ck: Arc<Checkpoint>) -> Arc<Checkpoint> {\n        \
         self.checkpoints.get_or_insert_with(key, || {\n            \
         let _lru = self.ck_lru.lock().expect(\"lru\");\n            ck\n        })\n    }\n}\n",
    );
    let mutated = analyze_sources(&files);
    let errors = mutated.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "lock-order");
    assert!(errors[0].message.contains("runner.ck_lru"), "{}", errors[0].message);
    assert!(errors[0].message.contains("runner.checkpoints"), "{}", errors[0].message);
}

#[test]
fn reactor_blocking_mutation_produces_exactly_one_finding() {
    let mut files = workspace_sources();
    let server = files
        .iter_mut()
        .find(|(p, _)| p == "crates/serve/src/server.rs")
        .expect("server.rs present");
    let anchor = "    fn route(&self, req: &Request) -> Outcome {";
    assert!(server.1.contains(anchor), "route anchor moved");
    server.1 = server.1.replacen(
        anchor,
        "    fn route(&self, req: &Request) -> Outcome {\n        \
         std::thread::sleep(core::time::Duration::from_millis(1));",
        1,
    );
    let mutated = analyze_sources(&files);
    let errors = mutated.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "no-blocking-in-reactor");
    assert!(errors[0].message.contains("sleep"), "{}", errors[0].message);
}

#[test]
fn digest_mutations_fire_in_both_directions() {
    // Dropping a digest write of a stepping-read field is caught.
    let mut files = workspace_sources();
    let config = files
        .iter_mut()
        .find(|(p, _)| p == "crates/core/src/config.rs")
        .expect("config.rs present");
    let write = "        h.write_usize(self.dtlb_entries);\n";
    assert!(config.1.contains(write), "dtlb_entries digest write moved");
    config.1 = config.1.replacen(write, "", 1);
    let mutated = analyze_sources(&files);
    let errors = mutated.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "digest-taint");
    assert!(errors[0].message.contains("dtlb_entries"), "{}", errors[0].message);

    // Digesting a scheduling-only knob is caught.
    let mut files = workspace_sources();
    let config = files
        .iter_mut()
        .find(|(p, _)| p == "crates/core/src/config.rs")
        .expect("config.rs present");
    let anchor = "        h.write_usize(self.dtlb_entries);";
    config.1 = config.1.replacen(
        anchor,
        "        h.write_usize(self.dtlb_entries);\n        h.write_bool(self.idle_skip);",
        1,
    );
    let mutated = analyze_sources(&files);
    let errors = mutated.errors();
    assert_eq!(errors.len(), 1, "{errors:#?}");
    assert_eq!(errors[0].rule, "digest-taint");
    assert!(errors[0].message.contains("idle_skip"), "{}", errors[0].message);
}
