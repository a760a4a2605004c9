//! The one recording harness. `golden_run`, `section6_golden`,
//! `packed_equivalence`, `checkpoint_equivalence`, `mesh-adversary`'s
//! `construction` and `mesh-bench`'s `determinism` include this file with
//! `#[path]`; it is the only place a run is recorded or compared.
//!
//! - [`Digest`] is 64-bit FNV-1a, over a case's inputs or what its run showed.
//! - [`Fold`] is the step-stream fold. Per step it folds the done flag, the
//!   delivered and lost ids and the packet configuration, and keeps the
//!   running digest after every [`BLOCK`] steps and after the last, partial
//!   block. At the end it folds the verdict, the report and the diagnostics.
//! - [`Entry`] is one case's line, `<key> <name>=<value>…`: the key is a
//!   digest of the case's inputs or a scenario's name, and the fields are
//!   counts in clear text, then digests.
//! - [`check`] files an entry as the next case of the running test, whose
//!   name is the name libtest gives the test's thread.
//!
//! Test binary `B`'s fixture is `tests/fixtures/B.txt`: per test, a
//! `<test> <cases>` line, then one indented entry per case in case order. A
//! test the fixture lacks, a changed case count, and a case whose key is not
//! the one recorded at its position all fail as "unrecorded case".
//! `GOLDEN_RECORD=1` writes the section of every test that runs instead of
//! checking it, so nothing checks what it writes: record only an intended
//! change, in a commit that changes nothing else.
//!
//! [`check_rendered`] holds a document file's rendered blocks, the lines
//! between `<!-- experiments ID -->` and `<!-- end ID -->`, to what a run
//! renders; `determinism` holds EXPERIMENTS.md's blocks to the suite's
//! tables this way, and under `GOLDEN_RECORD=1` rewrites them too. One
//! command records all six batteries:
//!
//! ```sh
//! GOLDEN_RECORD=1 cargo test --release -p mesh-routing -p mesh-adversary \
//!     -p mesh-bench --test golden_run --test section6_golden \
//!     --test packed_equivalence --test checkpoint_equivalence \
//!     --test construction --test determinism
//! ```
#![allow(dead_code)] // each battery uses part of the harness

use mesh_engine::{Loc, Router, Sim, SimError};
use mesh_topo::Topology;
use mesh_traffic::PacketId;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// 64-bit FNV-1a.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// The digest of `bytes` alone.
    pub fn of(bytes: impl AsRef<[u8]>) -> Digest {
        let mut d = Digest::new();
        d.bytes(bytes.as_ref());
        d
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn json(&mut self, value: &impl Serialize) {
        self.bytes(serde_json::to_string(value).expect("serialize").as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Steps per block digest of a stepped run.
pub const BLOCK: u64 = 64;

/// The fold of what one run showed, and its verdict in clear text.
pub struct Fold {
    digest: Digest,
    outcome: &'static str,
    stepped: u64,
    blocks: Vec<String>,
}

impl Fold {
    pub fn new() -> Fold {
        Fold {
            digest: Digest::new(),
            outcome: "unrun",
            stepped: 0,
            blocks: Vec::new(),
        }
    }

    /// Folds the step `sim` just took: its done flag, the ids it delivered
    /// and lost, and the packet configuration after it.
    pub fn step<T: Topology, R: Router>(
        &mut self,
        sim: &Sim<'_, T, R>,
        done: bool,
        delivered: &[PacketId],
        lost: &[PacketId],
    ) {
        let d = &mut self.digest;
        d.word(done as u64);
        for ids in [delivered, lost] {
            d.word(ids.len() as u64);
            ids.iter().for_each(|p| d.word(p.0 as u64));
        }
        self.packets(sim);
        self.stepped += 1;
        if self.stepped.is_multiple_of(BLOCK) {
            self.blocks.push(self.digest.hex());
        }
    }

    /// Steps `sim` until it is done or `max_steps` have run, folding each
    /// step, then the report and diagnostics.
    pub fn steps<T: Topology, R: Router>(&mut self, sim: &mut Sim<'_, T, R>, max_steps: u64) {
        let mut done = false;
        for _ in 0..max_steps {
            done = sim.step();
            let (delivered, lost) = (sim.last_step_deliveries(), sim.last_step_losses());
            self.step(sim, done, delivered, lost);
            if done {
                break;
            }
        }
        self.outcome = if done { "completed" } else { "capped" };
        self.end(sim);
    }

    /// Folds a run's verdict (completion, a watchdog trip, or the step cap):
    /// the step count, or the error kind and its diagnostic snapshot; then
    /// the packet configuration, the report and the diagnostics.
    pub fn verdict<T: Topology, R: Router>(
        &mut self,
        verdict: Result<u64, SimError>,
        sim: &Sim<'_, T, R>,
    ) {
        match verdict {
            Ok(steps) => {
                self.digest.word(steps);
                self.outcome = "completed";
            }
            Err(e) => {
                self.digest.bytes(e.kind().as_bytes());
                self.digest.json(e.snapshot());
                self.outcome = e.kind();
            }
        }
        self.packets(sim);
        self.end(sim);
    }

    /// This run's entry: outcome, step and delivery counts, run digest and
    /// block digests.
    pub fn entry<T: Topology, R: Router>(&self, key: &str, sim: &Sim<'_, T, R>) -> Entry {
        Entry::new(key)
            .with("outcome", self.outcome)
            .with("steps", sim.steps())
            .with("delivered", sim.delivered())
            .with("run", self.digest.hex())
            .with("blocks", self.blocks.join(","))
    }

    /// Folds the whole packet configuration: location, destination and
    /// state word per packet.
    fn packets<T: Topology, R: Router>(&mut self, sim: &Sim<'_, T, R>) {
        for (loc, dst, state) in sim.packet_snapshot() {
            let (tag, at) = match loc {
                Loc::At(at) => (0, at),
                Loc::Pending => (1, dst),
                Loc::Delivered => (2, dst),
                Loc::Lost => (3, dst),
                Loc::Shed => (4, dst),
                Loc::Expired => (5, dst),
            };
            for w in [tag, at.x, at.y, dst.x, dst.y] {
                self.digest.word(w as u64);
            }
            self.digest.word(state);
        }
    }

    /// Cuts the last, partial block, then folds the report and diagnostics.
    fn end<T: Topology, R: Router>(&mut self, sim: &Sim<'_, T, R>) {
        if (self.blocks.len() as u64) * BLOCK < self.stepped {
            self.blocks.push(self.digest.hex());
        }
        self.digest.json(&sim.report());
        self.digest.json(&sim.diagnostics());
    }
}

/// One case's fixture line, `<key> <name>=<value>…`; no key or value holds
/// a space.
#[derive(Clone, Debug, PartialEq)]
pub struct Entry(String);

impl Entry {
    pub fn new(key: &str) -> Entry {
        Entry(key.into())
    }

    pub fn with(mut self, name: &str, value: impl Display) -> Entry {
        self.0 += &format!(" {name}={value}");
        self
    }

    fn key(&self) -> &str {
        self.0.split(' ').next().unwrap_or_default()
    }

    fn field(&self, name: &str) -> Option<&str> {
        let mut fields = self.0.split(' ').skip(1);
        fields.find_map(|f| f.strip_prefix(name)?.strip_prefix('='))
    }

    /// Where `now` first departs from `self`: the first block whose digest
    /// differs, if one does.
    fn divergence(&self, now: &Entry) -> String {
        let was = self.field("blocks").unwrap_or_default().split(',');
        let is = now.field("blocks").unwrap_or_default().split(',');
        match was.zip(is).position(|(a, b)| a != b) {
            Some(i) => {
                let (from, to) = (i as u64 * BLOCK + 1, (i as u64 + 1) * BLOCK);
                format!(", first in block {i} (steps {from}..={to})")
            }
            None => String::new(),
        }
    }
}

/// Recorded cases by test, each test's in case order.
type Fixture = BTreeMap<String, Vec<Entry>>;

/// This test binary's fixture. Every including crate sits two levels below
/// the workspace root.
fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(concat!(env!("CARGO_CRATE_NAME"), ".txt"))
}

/// Reads this binary's fixture; a missing file records nothing. A
/// section's case count is for the reader: [`check`] counts its entries.
fn read_fixture() -> Fixture {
    let text = std::fs::read_to_string(fixture_path()).unwrap_or_default();
    let (mut fixture, mut test) = (Fixture::new(), "");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        match line.strip_prefix("  ") {
            Some(entry) => fixture
                .entry(test.into())
                .or_default()
                .push(Entry(entry.into())),
            None => test = line.split(' ').next().unwrap_or_default(),
        }
    }
    fixture
}

fn write_fixture(fixture: &Fixture) {
    let mut text = String::from(
        "# Recorded runs (tests/support/record.rs); re-record with GOLDEN_RECORD=1.\n",
    );
    for (test, entries) in fixture {
        text += &format!("{test} {}\n", entries.len());
        entries.iter().for_each(|e| text += &format!("  {}\n", e.0));
    }
    std::fs::write(fixture_path(), text).expect("write fixture");
}

/// Every entry this process has filed, by test. A test files its cases in
/// order on one thread, so its entries here are in case order.
static SEEN: Mutex<Fixture> = Mutex::new(BTreeMap::new());

/// Files `entry` as the next of the running test's `cases` cases. Under
/// `GOLDEN_RECORD` the test's section is written once its last case is in;
/// the lock on [`SEEN`] serialises the writes of parallel tests. Otherwise
/// the fixture must hold exactly `cases` cases for the test, and the one at
/// this case's position must be the same line: a renamed test, a new case
/// count, a dropped scenario or an edited strategy cannot silently weaken
/// the battery.
pub fn check(cases: usize, entry: Entry) -> Result<(), String> {
    let thread = std::thread::current();
    let test = thread
        .name()
        .expect("libtest names a test's thread after it");
    let mut seen = SEEN.lock().unwrap_or_else(|e| e.into_inner());
    let mine = seen.entry(test.into()).or_default();
    mine.push(entry.clone());
    if std::env::var_os("GOLDEN_RECORD").is_some() {
        if mine.len() == cases {
            let mut fixture = read_fixture();
            fixture.insert(test.into(), mine.clone());
            write_fixture(&fixture);
        }
        return Ok(());
    }
    static RECORDED: OnceLock<Fixture> = OnceLock::new();
    let unrecorded = |why: String| format!("unrecorded case: {test} {why}");
    let want = (RECORDED.get_or_init(read_fixture).get(test))
        .filter(|recorded| recorded.len() == cases)
        .and_then(|recorded| recorded.get(mine.len() - 1))
        .ok_or_else(|| unrecorded(format!("is not recorded with {cases} cases")))?;
    let (was, now) = (&want.0, &entry.0);
    if want.key() != entry.key() {
        return Err(unrecorded(format!(
            "drew {now} where the fixture holds {was}"
        )));
    }
    if *want != entry {
        let (key, at) = (entry.key(), want.divergence(&entry));
        return Err(format!(
            "{test}: case {key} diverged from its recorded run{at}\n  recorded: {was}\n  now:      {now}"
        ));
    }
    Ok(())
}

/// Holds each rendered block of the file at `path` to its document: `docs`
/// pairs an id with the text its block must hold, the lines between a line
/// `<!-- experiments ID -->` and the next `<!-- end ID -->`. A document
/// without a block (or without its end line), a block without a document
/// and a block that differs from its document all fail, naming the id. Under `GOLDEN_RECORD` every
/// block is rewritten to its document instead of being compared.
pub fn check_rendered(path: &Path, docs: &[(&str, String)]) -> Result<(), String> {
    let file = path.display();
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {file}: {e}"))?;
    let record = std::env::var_os("GOLDEN_RECORD").is_some();
    let (mut rewritten, mut seen) = (String::new(), Vec::new());
    let mut block: Option<(&str, String)> = None;
    for line in text.split_inclusive('\n') {
        let marker = |open: &str| line.strip_prefix(open)?.strip_suffix(" -->\n");
        match (block.take(), marker("<!-- end ")) {
            (Some((id, body)), Some(end)) if end == id => {
                let (_, doc) = (docs.iter().find(|(d, _)| *d == id))
                    .ok_or_else(|| format!("{file}: block {id} renders no document of the run"))?;
                if !record && body != *doc {
                    let same = body.lines().zip(doc.lines()).take_while(|(a, b)| a == b);
                    let at = same.count();
                    let line = |text: &str| text.lines().nth(at).unwrap_or("(end)").to_owned();
                    let (was, now) = (line(&body), line(doc));
                    return Err(format!(
                        "{file}: block {id} is not what the run renders, first at its line {}\n  \
                         file: {was}\n  run:  {now}",
                        at + 1
                    ));
                }
                rewritten += doc;
                seen.push(id);
            }
            (Some((id, body)), _) => block = Some((id, body + line)),
            (None, _) => block = marker("<!-- experiments ").map(|id| (id, String::new())),
        }
        if block.as_ref().is_none_or(|(_, body)| body.is_empty()) {
            rewritten += line;
        }
    }
    if let Some((id, _)) = docs.iter().find(|(id, _)| !seen.contains(id)) {
        return Err(format!("{file}: the run's {id} document has no block"));
    }
    if record {
        std::fs::write(path, rewritten).map_err(|e| format!("write {file}: {e}"))?;
    }
    Ok(())
}
