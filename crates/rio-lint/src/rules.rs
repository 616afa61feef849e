//! The rule engine: determinism (D1–D4) and safety (S1–S6) rules, and
//! the guard table ([`GUARDS`], G1–G8).
//!
//! Rules operate on the token stream produced by [`crate::lexer`], so
//! comments, string literals and raw strings can never hide or fake a
//! violation. Each rule reports `file:line:rule`; inline suppressions
//! (see [`check`]) excuse a single line with a recorded reason, and
//! suppressions that no longer excuse anything are themselves reported
//! so allows cannot rot. S6 and the guards need every file at once, so
//! they run from [`check_all`]; no allow lifts a guard.

use crate::lexer::{lex, Tok, TokKind};

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// Rule id (`D1` … `S6`, `G1` … `G8`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl Finding {
    /// Renders the canonical `file:line: RULE: message` form.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.path, self.line, self.rule, self.msg)
    }
}

/// Per-file classification fed to the rules by the workspace walker.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Owning workspace crate (`rio-order`, …). Files under the root
    /// `src/`, `tests/` and `examples/` trees belong to the facade
    /// crate `rio`.
    pub krate: String,
    /// Whether this file is a crate root (`src/lib.rs`, `src/main.rs`,
    /// `src/bin/*.rs`) and must carry `#![deny(missing_docs)]` (S3).
    pub is_crate_root: bool,
    /// Whether the file lives under a `tests/` or `benches/` tree.
    /// Test code is exempt from D1, D3 and S2.
    pub in_test_dir: bool,
}

/// Crates whose code runs on the deterministic event path. D1 and S2
/// apply only here; everything in a replay must be a pure function of
/// `(configuration, seed)`.
pub const EVENT_PATH_CRATES: &[&str] = &[
    "rio-sim",
    "rio-order",
    "rio-net",
    "rio-ssd",
    "rio-stack",
    "rio-fs",
];

/// The one file allowed to name raw `HashMap`/`HashSet`: the
/// deterministic `FxHashMap` aliases are defined there.
const D1_ALLOWED: &[&str] = &["crates/rio-sim/src/hash.rs"];

/// rio-bench's wall-clock report: the only place allowed to read
/// `Instant::now` (engine events/s is real elapsed time).
const D2_ALLOWED: &[&str] = &["crates/rio-bench/benches/sim_engine.rs"];

/// Every rule id, in report order. Suppressions naming anything else
/// are flagged by S4.
pub const RULES: &[&str] = &["D1", "D2", "D3", "D4", "S1", "S2", "S3", "S4", "S6"];

/// What a [`Guard`] row counts as a hit in one file.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// The file itself, when it has more non-test lines than this.
    Lines(usize),
    /// These space-separated token sequences (`.expect(`) in non-test
    /// code.
    Sites(&'static str),
    /// These token sequences in any code, test code included.
    Tokens(&'static str),
    /// Identifiers containing one of these, test code included.
    Infix(&'static str),
    /// These words on any line of a `Cargo.toml`.
    Words(&'static str),
}

/// One row of the guard table: an invariant with a scope and a budget.
#[derive(Debug, Clone, Copy)]
pub struct Guard {
    /// Rule id (`G1` …).
    pub rule: &'static str,
    /// What counts as a hit.
    pub check: Check,
    /// Path prefixes in scope, each with the hits allowed under it
    /// (0 bans). Over budget, every hit under the prefix is reported.
    pub within: &'static [(&'static str, usize)],
    /// Files in scope that the row exempts.
    pub except: &'static [&'static str],
    /// Why the invariant holds, quoted in every finding.
    pub reason: &'static str,
}

/// A panic site, as ROADMAP item 6 counts them.
const PANIC_SITES: &str = ".unwrap() .expect( unreachable! panic!( assert!( assert_eq!( \
                           assert_ne!( debug_assert!( debug_assert_eq!( debug_assert_ne!(";

/// Every tree of workspace code but `benchmark/`.
const ALL_CODE: &[(&str, usize)] = &[("crates/", 0), ("src/", 0), ("tests/", 0), ("examples/", 0)];

/// The guard table. Its rows take no suppression: S4 reports any
/// allow that names one.
pub const GUARDS: &[Guard] = &[
    Guard {
        rule: "G1",
        check: Check::Lines(1000),
        within: &[("crates/rio-stack/src/", 0)],
        except: &[],
        reason: "`cluster.rs` once accreted to 3 900 lines; split a file by role instead",
    },
    Guard {
        rule: "G2",
        check: Check::Sites(PANIC_SITES),
        within: &[
            ("crates/rio-stack/src/", 23),
            ("crates/rio-ssd/src/", 7),
            ("crates/rio-order/src/", 36),
            ("crates/rio-sim/src/", 8),
            ("crates/rio-proto/src/", 7),
            ("crates/rio-net/src/", 4),
            ("crates/rio-block/src/", 4),
        ],
        except: &[],
        reason: "each budget is the count its crate reached; retiring sites lowers it, \
                 nothing raises it",
    },
    Guard {
        rule: "G3",
        check: Check::Sites(".round()"),
        within: &[
            ("crates/rio-sim/src/", 0),
            ("crates/rio-net/src/", 0),
            ("crates/rio-ssd/src/", 0),
            ("crates/rio-order/src/", 0),
            ("crates/rio-stack/src/", 0),
        ],
        except: &[],
        reason: "f64::round is a software call on the x86-64 baseline; round through \
                 rio_sim::time::round_u64",
    },
    Guard {
        rule: "G4",
        check: Check::Tokens("pin_stream_to_qp:"),
        within: ALL_CODE,
        except: &["crates/rio-stack/src/config.rs"],
        reason: "a ClusterConfig literal naming every field grows with each new field; build \
                 one from ClusterConfig::new or a canned constructor with overrides",
    },
    Guard {
        rule: "G5",
        check: Check::Infix("fabric_bw one_way"),
        within: &[("crates/rio-stack/src/cluster/recovery.rs", 0)],
        except: &[],
        reason: "recovery's messages ride the event-driven wire legs, so recovery computes \
                 no wire time from the fabric profile",
    },
    Guard {
        rule: "G6",
        check: Check::Infix("OnceLock thread_local lazy"),
        within: &[("crates/rio-proto/src/", 0)],
        except: &[],
        reason: "checksum tables are const; one built on first use allocates in the first \
                 repetition only",
    },
    Guard {
        rule: "G7",
        check: Check::Words("rand"),
        within: &[
            ("Cargo.toml", 0),
            ("crates/", 0),
            ("vendor/", 0),
            ("benchmark/", 0),
        ],
        except: &[],
        reason: "rio_sim::SimRng is the only generator, and D3 exempts test code, so no \
                 manifest may name the rand crate",
    },
    Guard {
        rule: "G8",
        check: Check::Tokens("CoreSet qps_per_target stripe_blocks TargetConfig with_cores"),
        within: ALL_CODE,
        except: &[],
        reason: "ClusterConfig::cores is every server's driver cores and every connection's \
                 queue pairs, and the stripe is STRIPE_BLOCKS",
    },
];

/// An inline suppression parsed from a line comment of the form
/// `rio-lint: allow(<rule>) <reason>` (the comment must start with the
/// marker). It excuses findings of `<rule>` on its own line and the
/// line immediately below.
#[derive(Debug)]
struct Suppression {
    rule: String,
    line: u32,
    reason: String,
    used: bool,
}

fn finding(meta: &FileMeta, line: u32, rule: &'static str, msg: String) -> Finding {
    Finding {
        path: meta.rel.clone(),
        line,
        rule,
        msg,
    }
}

/// Lints one file's source text under the given classification: every
/// rule that needs no other file (all but S6 and the guards).
///
/// The binary and the golden tests both reach this, so fixtures
/// exercise exactly the code CI runs.
pub fn check(src: &str, meta: &FileMeta) -> Vec<Finding> {
    let toks = lex(src);
    check_toks(&toks, &test_regions(&toks), meta, Vec::new())
}

/// Lints a set of files together: the single-file rules on each Rust
/// file, S6 over all of them with one file's suppressions applied to
/// its findings from both passes, then the guard table over every file,
/// `Cargo.toml` manifests included. Findings come out in input order,
/// guard findings last.
pub fn check_all(files: &[(FileMeta, String)]) -> Vec<Finding> {
    let lexed: Vec<Vec<Tok>> = files.iter().map(|(_, src)| lex(src)).collect();
    let in_test: Vec<Vec<bool>> = lexed.iter().map(|toks| test_regions(toks)).collect();
    let mut unreached = unreached_pub_items(files, &lexed, &in_test);
    let mut out = Vec::new();
    for (((meta, _), toks), test) in files.iter().zip(&lexed).zip(&in_test) {
        if !is_manifest(meta) {
            let (mine, rest) = unreached.into_iter().partition(|f| f.path == meta.rel);
            unreached = rest;
            out.extend(check_toks(toks, test, meta, mine));
        }
    }
    for g in GUARDS {
        for &(prefix, max) in g.within {
            let mut hits = Vec::new();
            for (((meta, src), toks), test) in files.iter().zip(&lexed).zip(&in_test) {
                if meta.rel.starts_with(prefix) && !g.except.contains(&meta.rel.as_str()) {
                    let found = guard_hits(g.check, meta, src, toks, test);
                    hits.extend(found.into_iter().map(|(line, what)| (meta, line, what)));
                }
            }
            if hits.len() > max {
                let n = hits.len();
                out.extend(hits.into_iter().map(|(meta, line, what)| {
                    let msg = format!("{what}: {n} under `{prefix}`, {max} allowed; {}", g.reason);
                    finding(meta, line, g.rule, msg)
                }));
            }
        }
    }
    out
}

/// Whether the file is a manifest, which only [`Check::Words`] reads.
fn is_manifest(meta: &FileMeta) -> bool {
    meta.rel.ends_with("Cargo.toml")
}

/// Whether the whole file is test code: anything under a `tests/`
/// tree, and a `tests.rs` module file (declared `#[cfg(test)]` by its
/// parent, which a per-file scan cannot see). S6 and the guards read
/// it so; for S6, benches and examples are real callers.
fn test_file(rel: &str) -> bool {
    rel.split('/').any(|p| p == "tests" || p == "tests.rs")
}

/// One file's hits of a guard `check`, as `(line, what was hit)`.
fn guard_hits(
    check: Check,
    meta: &FileMeta,
    src: &str,
    toks: &[Tok],
    in_test: &[bool],
) -> Vec<(u32, String)> {
    let rust = !is_manifest(meta);
    let non_test = rust && !test_file(&meta.rel);
    let (pats, tests, infix) = match check {
        Check::Lines(max) if non_test => {
            let n = non_test_lines(src, toks, in_test);
            let over = (n > max).then(|| (1, format!("{n} non-test lines, over {max}")));
            return over.into_iter().collect();
        }
        Check::Words(words) if !rust => {
            let word = |w: &str| words.split_whitespace().any(|x| x == w);
            let named = |l: &&str| {
                l.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .any(word)
            };
            let lines = src.lines().zip(1..).filter(|(l, _)| named(l));
            return lines.map(|(l, n)| (n, format!("`{}`", l.trim()))).collect();
        }
        Check::Sites(pats) if non_test => (pats, false, false),
        Check::Tokens(pats) if rust => (pats, true, false),
        Check::Infix(pats) if rust => (pats, true, true),
        _ => return Vec::new(),
    };
    let pats: Vec<Vec<Tok>> = pats.split_whitespace().map(lex).collect();
    let code = code_of(toks);
    let mut hits = Vec::new();
    for ci in (0..code.len()).filter(|&ci| tests || !in_test[code[ci]]) {
        for pat in &pats {
            let seq = &code[ci..code.len().min(ci + pat.len())];
            let hit = seq.len() == pat.len()
                && pat.iter().zip(seq).all(|(p, &ti)| {
                    let t = &toks[ti];
                    t.kind == p.kind && (t.text == p.text || infix && t.text.contains(&p.text))
                });
            if hit {
                let text: String = seq.iter().map(|&ti| toks[ti].text.as_str()).collect();
                hits.push((toks[code[ci]].line, format!("`{text}`")));
            }
        }
    }
    hits
}

/// The file's lines less those a test region spans, from the line of
/// its attribute to the line of its closing brace.
fn non_test_lines(src: &str, toks: &[Tok], in_test: &[bool]) -> usize {
    let lines = src.lines().count();
    let mut test = vec![false; lines + 2];
    for (i, t) in toks.iter().enumerate().filter(|(i, _)| in_test[*i]) {
        let prev = i.checked_sub(1).filter(|&p| in_test[p]);
        let from = prev.map_or(t.line, |p| toks[p].line);
        for l in from..=t.line {
            test[l as usize] = true;
        }
    }
    lines - test[1..=lines].iter().filter(|t| **t).count()
}

/// S6: a `pub` item declared in the non-test part of `crates/<c>/src`
/// whose name is an identifier of no other non-test code in `files`.
///
/// A name-only scan: a second item of the same name anywhere, or any
/// unrelated use of the word, counts as a reference, so common names
/// (`new`, `len`) are never flagged — the conservative side. Integration
/// tests are not references: an item only they name is an item nothing
/// in the product reaches.
fn unreached_pub_items(
    files: &[(FileMeta, String)],
    lexed: &[Vec<Tok>],
    in_test: &[Vec<bool>],
) -> Vec<Finding> {
    const ITEMS: &[&str] = &["fn", "struct", "enum", "trait", "type", "const"];
    let mut uses: std::collections::BTreeMap<&str, u32> = std::collections::BTreeMap::new();
    let mut decls: Vec<(&FileMeta, &Tok)> = Vec::new();
    for (((meta, _), toks), in_test) in files.iter().zip(lexed).zip(in_test) {
        if test_file(&meta.rel) || is_manifest(meta) {
            continue;
        }
        let code: Vec<&Tok> = toks
            .iter()
            .zip(in_test)
            .filter(|(t, test)| {
                !**test && !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
            })
            .map(|(t, _)| t)
            .collect();
        let declares = meta.rel.starts_with("crates/") && meta.rel.contains("/src/");
        let mut in_use = false;
        // The `impl` block being walked: the identifiers of its header
        // (the type, the trait, their parameters) and the brace depth
        // its body closes at. A type's own impl does not reach it.
        let mut own: Vec<&str> = Vec::new();
        let (mut in_header, mut body, mut depth) = (false, None, 0u32);
        for (ci, t) in code.iter().enumerate() {
            // An import or re-export names an item without reaching it.
            in_use = (in_use && t.text != ";") || t.text == "use";
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") => {
                    depth += 1;
                    if std::mem::take(&mut in_header) {
                        body = Some(depth);
                    }
                }
                (TokKind::Punct, "}") => {
                    if body == Some(depth) {
                        body = None;
                        own.clear();
                    }
                    depth = depth.saturating_sub(1);
                }
                // At item position only: `impl Trait` in a signature
                // follows `:`, `(`, `<`, `>` or `&`.
                (TokKind::Ident, "impl") if body.is_none() => {
                    let before = ci.checked_sub(1).map_or("", |p| code[p].text.as_str());
                    in_header = matches!(before, "" | ";" | "}" | "{" | "]" | "unsafe");
                }
                _ => {}
            }
            if t.kind != TokKind::Ident || in_use {
                continue;
            }
            if in_header {
                own.push(t.text.as_str());
            }
            if own.contains(&t.text.as_str()) {
                continue;
            }
            *uses.entry(t.text.as_str()).or_default() += 1;
            if !declares || t.text != "pub" {
                continue;
            }
            // `pub [const|async|unsafe]* fn NAME`, or `pub <item> NAME`;
            // `pub(crate)` has a `(` next and is not a public item.
            let mut k = ci + 1;
            while k + 1 < code.len()
                && matches!(code[k].text.as_str(), "const" | "async" | "unsafe")
                && ITEMS.contains(&code[k + 1].text.as_str())
            {
                k += 1;
            }
            if let (Some(item), Some(name)) = (code.get(k), code.get(k + 1)) {
                if ITEMS.contains(&item.text.as_str()) && name.kind == TokKind::Ident {
                    decls.push((meta, name));
                }
            }
        }
    }
    decls
        .into_iter()
        .filter(|(_, name)| uses.get(name.text.as_str()).is_none_or(|n| *n <= 1))
        .map(|(meta, name)| {
            finding(
                meta,
                name.line,
                "S6",
                format!(
                    "pub item `{}` is named by no non-test code but its own declaration; \
                     delete it, mark it #[cfg(test)] if its crate's unit tests observe \
                     state through it, or record the caller it waits for",
                    name.text
                ),
            )
        })
        .collect()
}

/// The single-file rules over `toks`, then suppressions and their
/// hygiene over those findings and `extra` (this file's share of a
/// cross-file pass).
fn check_toks(
    toks: &[Tok],
    in_test: &[bool],
    meta: &FileMeta,
    extra: Vec<Finding>,
) -> Vec<Finding> {
    let mut sups = collect_suppressions(toks);
    let safety = safety_comment_lines(toks);
    let code = code_of(toks);

    let event_path = EVENT_PATH_CRATES.contains(&meta.krate.as_str());
    let rel = meta.rel.as_str();
    let mut raw: Vec<Finding> = extra;

    for (ci, &ti) in code.iter().enumerate() {
        let t = &toks[ti];
        if t.kind != TokKind::Ident {
            continue;
        }
        let test = meta.in_test_dir || in_test[ti];

        // D1: raw std hash collections on the event path.
        if event_path
            && !test
            && !D1_ALLOWED.contains(&rel)
            && (t.text == "HashMap" || t.text == "HashSet")
        {
            raw.push(finding(
                meta,
                t.line,
                "D1",
                format!(
                    "raw std {} has nondeterministic iteration order on the event path; \
                     use rio_sim::FxHashMap or BTreeMap/BTreeSet",
                    t.text
                ),
            ));
        }

        // D2: wall-clock reads. Applies to test code too — virtual
        // time is the only clock a deterministic replay may observe.
        if !D2_ALLOWED.contains(&rel)
            && (t.text == "Instant" || t.text == "SystemTime")
            && path_call_is(toks, &code, ci, "now")
        {
            raw.push(finding(
                meta,
                t.line,
                "D2",
                format!(
                    "{}::now() reads the wall clock; simulation code must use virtual \
                     SimTime (wall-clock measurement lives in rio-bench's sim_engine bench)",
                    t.text
                ),
            ));
        }

        // D3: randomness outside SimRng, which owns the only generator.
        if !test {
            if t.text == "thread_rng" || t.text == "from_entropy" {
                raw.push(finding(
                    meta,
                    t.line,
                    "D3",
                    format!(
                        "{} seeds from the OS; all simulator randomness must flow \
                         through rio_sim::SimRng",
                        t.text
                    ),
                ));
            } else if t.text == "rand" && rand_is_path_or_use(toks, &code, ci) {
                raw.push(finding(
                    meta,
                    t.line,
                    "D3",
                    "the rand crate is not a dependency: all simulator randomness \
                     flows through rio_sim::SimRng, the workspace's only generator"
                        .to_string(),
                ));
            }
        }

        // D4: wall-clock date/time formatting in deterministic output.
        if !test {
            let date_now = (t.text == "Local" || t.text == "Utc")
                && path_call_is(toks, &code, ci, "now");
            let date_ident = matches!(
                t.text.as_str(),
                "chrono" | "strftime" | "asctime" | "OffsetDateTime"
            );
            if date_now || date_ident {
                raw.push(finding(
                    meta,
                    t.line,
                    "D4",
                    format!(
                        "`{}` formats wall-clock dates; deterministic output must not \
                         embed the time of the run",
                        t.text
                    ),
                ));
            }
        }

        // S1: every unsafe block needs a SAFETY comment.
        if t.text == "unsafe" {
            let covered = safety.contains(&t.line) || (t.line > 1 && covered_above(&safety, toks, t.line));
            if !covered {
                raw.push(finding(
                    meta,
                    t.line,
                    "S1",
                    "unsafe block without a `// SAFETY:` comment on the line above \
                     (or at the end of a contiguous SAFETY comment block)"
                        .to_string(),
                ));
            }
        }

        // S2: lazy failure modes on the event path.
        if event_path
            && !test
            && matches!(t.text.as_str(), "panic" | "todo" | "unimplemented")
            && next_punct_is(toks, &code, ci, "!")
        {
            raw.push(finding(
                meta,
                t.line,
                "S2",
                format!(
                    "{}! in non-test event-path code; return a Result, use \
                     unreachable! for provably impossible states, or suppress with a \
                     recorded reason",
                    t.text
                ),
            ));
        }
    }

    // S3: crate roots must deny missing docs.
    if meta.is_crate_root && !has_deny_missing_docs(toks, &code) {
        raw.push(finding(
            meta,
            1,
            "S3",
            "crate root lacks #![deny(missing_docs)]".to_string(),
        ));
    }

    // Apply suppressions: a matching allow on the same line or the
    // line above excuses the finding and is marked used.
    let mut out: Vec<Finding> = Vec::new();
    'findings: for f in raw {
        for s in sups.iter_mut() {
            if s.rule == f.rule && (s.line == f.line || s.line + 1 == f.line) {
                s.used = true;
                continue 'findings;
            }
        }
        out.push(f);
    }

    // S4: suppression hygiene.
    for s in &sups {
        if GUARDS.iter().any(|g| g.rule == s.rule) {
            out.push(finding(
                meta,
                s.line,
                "S4",
                format!(
                    "{} is a guard: no allow raises its budget or lifts its ban",
                    s.rule
                ),
            ));
        } else if !RULES.contains(&s.rule.as_str()) {
            out.push(finding(
                meta,
                s.line,
                "S4",
                format!("suppression names unknown rule `{}`", s.rule),
            ));
        } else if s.reason.is_empty() {
            out.push(finding(
                meta,
                s.line,
                "S4",
                format!(
                    "suppression of {} lacks a reason; write \
                     `rio-lint: allow({}) <why this is sound>`",
                    s.rule, s.rule
                ),
            ));
        } else if !s.used {
            out.push(finding(
                meta,
                s.line,
                "S4",
                format!(
                    "unused suppression of {} — the violation it excused is gone; \
                     delete the allow",
                    s.rule
                ),
            ));
        }
    }

    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Indices of the non-comment tokens, for sequence matching.
fn code_of(toks: &[Tok]) -> Vec<usize> {
    (0..toks.len())
        .filter(|&i| !matches!(toks[i].kind, TokKind::LineComment | TokKind::BlockComment))
        .collect()
}

/// True when the ident at `code[ci]` is followed by `::name` (a path
/// call like `Instant::now`).
fn path_call_is(toks: &[Tok], code: &[usize], ci: usize, name: &str) -> bool {
    let p = |k: usize| code.get(ci + k).map(|&i| &toks[i]);
    matches!(
        (p(1), p(2), p(3)),
        (Some(a), Some(b), Some(c))
            if a.text == ":" && b.text == ":" && c.kind == TokKind::Ident && c.text == name
    )
}

/// True when the `rand` ident at `code[ci]` is used as a crate path
/// (`rand::…`) or imported (`use rand…`), rather than being an
/// unrelated local named `rand`.
fn rand_is_path_or_use(toks: &[Tok], code: &[usize], ci: usize) -> bool {
    let next_is_path = code
        .get(ci + 1)
        .map(|&i| toks[i].text == ":")
        .unwrap_or(false);
    let prev_is_use = ci > 0 && toks[code[ci - 1]].text == "use";
    next_is_path || prev_is_use
}

/// True when `code[ci + 1]` is the punctuation `want` (e.g. the `!` of
/// a macro invocation).
fn next_punct_is(toks: &[Tok], code: &[usize], ci: usize, want: &str) -> bool {
    code.get(ci + 1)
        .map(|&i| toks[i].kind == TokKind::Punct && toks[i].text == want)
        .unwrap_or(false)
}

/// Lines on which a comment containing `SAFETY:` starts.
fn safety_comment_lines(toks: &[Tok]) -> Vec<u32> {
    toks.iter()
        .filter(|t| {
            matches!(t.kind, TokKind::LineComment | TokKind::BlockComment)
                && t.text.contains("SAFETY:")
        })
        .map(|t| t.line)
        .collect()
}

/// Walks upward from the line above `line` through contiguous comment
/// lines, accepting if any of them starts a SAFETY comment. This lets
/// a multi-line SAFETY explanation cover the unsafe block beneath it.
fn covered_above(safety: &[u32], toks: &[Tok], line: u32) -> bool {
    let comment_lines: Vec<u32> = toks
        .iter()
        .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|t| t.line)
        .collect();
    let mut l = line - 1;
    while l >= 1 && comment_lines.contains(&l) {
        if safety.contains(&l) {
            return true;
        }
        if l == 1 {
            break;
        }
        l -= 1;
    }
    false
}

/// True when the token stream contains the inner attribute
/// `#![deny(missing_docs)]`.
fn has_deny_missing_docs(toks: &[Tok], code: &[usize]) -> bool {
    for w in 0..code.len().saturating_sub(7) {
        let t = |k: usize| &toks[code[w + k]];
        if t(0).text == "#"
            && t(1).text == "!"
            && t(2).text == "["
            && t(3).text == "deny"
            && t(4).text == "("
            && t(5).text == "missing_docs"
            && t(6).text == ")"
            && t(7).text == "]"
        {
            return true;
        }
    }
    false
}

/// Parses inline suppressions from line comments. Only comments that
/// *start* with the marker count, so prose mentioning the syntax in a
/// doc comment is never misread as an allow.
fn collect_suppressions(toks: &[Tok]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::LineComment {
            continue;
        }
        let body = t.text.trim_start_matches(['/', '!']).trim_start();
        let Some(rest) = body.strip_prefix("rio-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow(") else {
            out.push(Suppression {
                rule: String::new(),
                line: t.line,
                reason: String::new(),
                used: false,
            });
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Suppression {
                rule: String::new(),
                line: t.line,
                reason: String::new(),
                used: false,
            });
            continue;
        };
        out.push(Suppression {
            rule: rest[..close].trim().to_string(),
            line: t.line,
            reason: rest[close + 1..].trim().to_string(),
            used: false,
        });
    }
    out
}

/// Marks every token of a `#[cfg(test)]` / `#[test]` item, attribute
/// included: this decides what every rule and guard calls test code.
///
/// The scan is syntactic: an attribute group whose idents include
/// `test` (and not `not`, so `#[cfg(not(test))]` stays non-test)
/// marks the attached item through the `}` matching the first `{`
/// before any top-level `;`, or through that `;`.
fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut flag = vec![false; toks.len()];
    let code = code_of(toks);

    let mut ci = 0usize;
    while ci < code.len() {
        if toks[code[ci]].text != "#" {
            ci += 1;
            continue;
        }
        // Inner attributes (`#![…]`) never attach to a following item.
        if ci + 1 < code.len() && toks[code[ci + 1]].text == "!" {
            ci += 1;
            continue;
        }
        if ci + 1 >= code.len() || toks[code[ci + 1]].text != "[" {
            ci += 1;
            continue;
        }
        // Collect the bracket group.
        let mut depth = 0usize;
        let mut j = ci + 1;
        let mut has_test = false;
        let mut has_not = false;
        while j < code.len() {
            let t = &toks[code[j]];
            if t.text == "[" {
                depth += 1;
            } else if t.text == "]" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.kind == TokKind::Ident {
                if t.text == "test" {
                    has_test = true;
                } else if t.text == "not" {
                    has_not = true;
                }
            }
            j += 1;
        }
        if !(has_test && !has_not) {
            ci = j + 1;
            continue;
        }
        // Skip any further outer attributes on the same item.
        let mut k = j + 1;
        while k + 1 < code.len() && toks[code[k]].text == "#" && toks[code[k + 1]].text == "[" {
            let mut d = 0usize;
            k += 1;
            while k < code.len() {
                if toks[code[k]].text == "[" {
                    d += 1;
                } else if toks[code[k]].text == "]" {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // The item ends at the `}` matching its body's first `{`, or at
        // the `;` of a body-less item (`#[cfg(test)] mod tests;`).
        let mut e = k;
        while e < code.len() && !matches!(toks[code[e]].text.as_str(), ";" | "{") {
            e += 1;
        }
        let mut d = 0usize;
        while e < code.len() {
            match toks[code[e]].text.as_str() {
                "{" => d += 1,
                "}" => d -= 1,
                _ => {}
            }
            if d == 0 {
                break;
            }
            e += 1;
        }
        let end_ti = code[e.min(code.len() - 1)];
        for f in flag.iter_mut().take(end_ti + 1).skip(code[ci]) {
            *f = true;
        }
        ci = e + 1;
    }
    flag
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(krate: &str) -> FileMeta {
        FileMeta {
            rel: format!("crates/{krate}/src/sample.rs"),
            krate: krate.to_string(),
            is_crate_root: false,
            in_test_dir: false,
        }
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "#[cfg(not(test))]\npub fn f() { let m = std::collections::HashMap::<u8, u8>::new(); let _ = m; }\n";
        let f = check(src, &meta("rio-order"));
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D1");
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _: HashMap<u8, u8> = HashMap::new(); }\n}\n";
        assert!(check(src, &meta("rio-order")).is_empty());
    }

    #[test]
    fn non_event_path_crates_may_hash() {
        let src = "use std::collections::HashMap;\n";
        assert!(check(src, &meta("rio-bench")).is_empty());
        assert_eq!(check(src, &meta("rio-stack")).len(), 1);
    }

    #[test]
    fn suppression_requires_exact_comment_start() {
        // Prose in a doc comment mentioning the marker mid-sentence is
        // not a suppression (and so cannot be flagged unused).
        let src = "/// Suppressions look like \"rio-lint: allow(D1) reason\".\npub fn f() {}\n";
        assert!(check(src, &meta("rio-bench")).is_empty());
    }

    #[test]
    fn multi_line_safety_comment_covers_unsafe() {
        let src = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: p is valid for reads,\n    // which the caller guarantees.\n    unsafe { *p }\n}\n";
        assert!(check(src, &meta("rio-bench")).is_empty());
    }
}
