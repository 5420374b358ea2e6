//! The docs describe the repository as it is. Three checks over
//! README.md, DESIGN.md, EXPERIMENTS.md, `docs/*.md` and the verify
//! skill's notes:
//!
//! - (a) every backticked repo path exists: a token whose first
//!   component is one of `REPO_DIRS`, and every other `*.rs`, `*.chaos`
//!   or `*.csv` name, which must then be a path from the repo root;
//! - (b) every `tamp-exp <cmd> …` command line, in a code span or a code
//!   block, names a registered command, only flags in `registry::FLAGS`
//!   and only files that (a) accepts; so does every `tamp-exp` line of
//!   `ci/smoke.sh` and `.github/workflows/ci.yml`, and every
//!   `ci/smoke.sh <job>` names a job of that script;
//! - (c) every `<DOC>.md, "Title"` or `<DOC>.md ("Title")` citation, in
//!   the docs and in code comments, names a heading of that doc.
//!
//! CHANGES.md and ROADMAP.md are history and are not read; `benchmark/`
//! documents its own package.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use tamp_harness::registry::{self, FLAGS};

/// The first path components that (a) checks.
const REPO_DIRS: &[&str] = &[
    "crates",
    "docs",
    "tests",
    "src",
    "scenarios",
    "results",
    "ci",
    "tools",
    "vendor",
];

/// Files a documented command writes that are not checked in.
const WRITTEN_BY_COMMANDS: &[&str] = &["results/fig12_trials.csv", "results/fig13_trials.csv"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The docs the lock reads, as repo-relative paths.
fn docs() -> Vec<String> {
    let mut docs: Vec<String> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .map(String::from)
        .to_vec();
    let mut under_docs: Vec<String> = fs::read_dir(root().join("docs"))
        .expect("docs/")
        .map(|e| e.expect("docs/ entry").file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".md"))
        .map(|name| format!("docs/{name}"))
        .collect();
    under_docs.sort();
    docs.extend(under_docs);
    docs.push(".claude/skills/verify/SKILL.md".into());
    docs
}

/// A piece of a doc with the line it starts on.
struct Piece {
    line: usize,
    text: String,
}

/// A markdown doc's inline code spans (a span may wrap onto the next
/// line of its paragraph) and its code-block lines (a line ending in
/// `\` joined with the next).
fn code(doc: &str) -> (Vec<Piece>, Vec<Piece>) {
    let (mut spans, mut blocks) = (Vec::new(), Vec::new());
    let mut fenced = false;
    let mut open: Option<Piece> = None;
    let mut continued: Option<Piece> = None;
    for (i, line) in doc.lines().enumerate() {
        let n = i + 1;
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            open = None;
            continue;
        }
        if fenced {
            let mut piece = continued.take().unwrap_or(Piece {
                line: n,
                text: String::new(),
            });
            match line.trim_end().strip_suffix('\\') {
                Some(head) => {
                    piece.text.push_str(head);
                    piece.text.push(' ');
                    continued = Some(piece);
                }
                None => {
                    piece.text.push_str(line);
                    blocks.push(piece);
                }
            }
            continue;
        }
        if line.trim().is_empty() {
            open = None;
            continue;
        }
        for (k, part) in line.split('`').enumerate() {
            if k > 0 {
                match open.take() {
                    Some(span) => spans.push(span),
                    None => {
                        open = Some(Piece {
                            line: n,
                            text: String::new(),
                        })
                    }
                }
            }
            if let Some(span) = open.as_mut() {
                span.text.push_str(part);
            }
        }
        if let Some(span) = open.as_mut() {
            span.text.push(' ');
        }
    }
    (spans, blocks)
}

/// `a/{b,c}/d` → `a/b/d`, `a/c/d`.
fn expand(word: &str) -> Vec<String> {
    let Some(open) = word.find('{') else {
        return vec![word.to_string()];
    };
    let Some(close) = word[open..].find('}').map(|c| open + c) else {
        return vec![word.to_string()];
    };
    word[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{alt}{}", &word[..open], &word[close + 1..])))
        .collect()
}

/// What (a) has to say about one word of a code span, if anything.
fn path_problem(word: &str) -> Option<String> {
    let word = word
        .trim_start_matches(['(', '"', '\''])
        .trim_end_matches([')', ',', '.', ':', ';', '"', '\'']);
    // `file.rs:142` and `file.rs:142-150` name lines of the file.
    let word = match word.split_once(':') {
        Some((path, rest)) if rest.starts_with(|c: char| c.is_ascii_digit()) => path,
        _ => word,
    };
    // `crates/netsim/tests/common::fingerprint` names an item in the path.
    let word = word.split("::").next().unwrap_or(word);
    for path in expand(word) {
        if path.starts_with('/') {
            continue; // outside the repository
        }
        let first = path.split('/').next().unwrap_or("");
        let rooted = path.contains('/') && REPO_DIRS.contains(&first);
        let file = [".rs", ".chaos", ".csv"]
            .iter()
            .any(|ext| path.len() > ext.len() && path.ends_with(ext));
        let bare = file && !rooted;
        if !(rooted || bare) {
            continue;
        }
        // A placeholder or a glob: the directory in front of it must exist.
        let checked = match path.find(['*', '<', '$', '…']) {
            Some(at) => &path[..path[..at].rfind('/').unwrap_or(0)],
            None => &path,
        };
        if WRITTEN_BY_COMMANDS.contains(&checked) || root().join(checked).exists() {
            continue;
        }
        return Some(if bare {
            format!("`{path}` is a bare file name: write its repo path")
        } else {
            format!("`{path}` does not exist")
        });
    }
    None
}

/// The jobs `ci/smoke.sh` runs (its `JOBS=` line, and `all`).
fn smoke_jobs() -> BTreeSet<String> {
    let script = read("ci/smoke.sh");
    let line = script
        .lines()
        .find_map(|l| l.strip_prefix("JOBS=\""))
        .expect("ci/smoke.sh has a JOBS= line");
    line.trim_end_matches('"')
        .split_whitespace()
        .chain(["all"])
        .map(String::from)
        .collect()
}

/// What (b) has to say about the command lines in one piece of text.
fn command_problems(text: &str, jobs: &BTreeSet<String>) -> Vec<String> {
    let mut problems = Vec::new();
    let flags: BTreeSet<&str> = FLAGS.iter().map(|f| f.name).collect();
    let commands: BTreeSet<&str> = registry::names().collect();
    let tokens = |s: &str| -> Vec<String> {
        let end = ["|", "&&", ";", ">"]
            .iter()
            .filter_map(|stop| s.find(stop))
            .min()
            .unwrap_or(s.len());
        s[..end]
            .split_whitespace()
            .map(|t| {
                t.trim_matches(['"', '\'', '`', ',', '[', ']', '(', ')'])
                    .to_string()
            })
            .filter(|t| !t.is_empty())
            .collect()
    };
    let mut check = |mut args: &[String]| {
        // `cargo run … --bin tamp-exp -- <cmd> …`
        if args.first().is_some_and(|a| a == "--") {
            args = &args[1..];
        }
        if let Some(cmd) = args.first() {
            let placeholder = cmd.starts_with(['-', '<', '$', '…', '.']);
            if !placeholder && !commands.contains(cmd.as_str()) {
                problems.push(format!("`tamp-exp {cmd}`: no such command"));
            }
        }
        // A file a command line reads (`--scenario`, `topo <file>`) must
        // exist as well.
        problems.extend(args.iter().skip(1).filter_map(|a| path_problem(a)));
        for flag in args.iter().filter(|a| a.starts_with("--")) {
            let flag = flag.split('=').next().unwrap_or(flag);
            if !flags.contains(flag) && flag != "--help" {
                problems.push(format!("`tamp-exp … {flag}`: no such flag"));
            }
        }
    };
    // A trailing shell comment is prose.
    let text = match text.find(" #") {
        Some(at) if !text[..at].trim().is_empty() => &text[..at],
        _ => text,
    };
    let mut rest = text;
    while let Some(at) = rest.find("tamp-exp") {
        let before = rest[..at].chars().next_back();
        let after = &rest[at + "tamp-exp".len()..];
        let standalone = before.is_none_or(|c| " /`(\"'".contains(c))
            && after.chars().next().is_none_or(char::is_whitespace);
        if standalone {
            check(&tokens(after));
        }
        rest = after;
    }
    // `ci/smoke.sh`'s wrapper: `exp <cmd> …`, and `same_at_any_width
    // <tag> [exports] -- <cmd> …`.
    let line = text.trim_start();
    if let Some(args) = line
        .strip_prefix("exp ")
        .or_else(|| line.strip_prefix("if exp "))
    {
        check(&tokens(args));
    }
    if let Some((_, args)) = line
        .strip_prefix("same_at_any_width ")
        .and_then(|l| l.split_once(" -- "))
    {
        check(&tokens(args));
    }
    let mut rest = text;
    while let Some(at) = rest.find("ci/smoke.sh ") {
        rest = &rest[at + "ci/smoke.sh ".len()..];
        if let Some(job) = tokens(rest).first() {
            let job = job.strip_suffix("-smoke").unwrap_or(job);
            if !job.starts_with(['<', '$']) && !jobs.contains(job) {
                problems.push(format!("`ci/smoke.sh {job}`: no such job"));
            }
        }
    }
    problems
}

/// The headings of a markdown doc, `#`s and spaces stripped.
fn headings(doc: &str) -> Vec<String> {
    let mut fenced = false;
    let mut out = Vec::new();
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced && line.starts_with('#') {
            out.push(line.trim_start_matches('#').trim().to_string());
        }
    }
    out
}

/// Does `heading` carry `title`, with or without its parenthesis?
fn titled(heading: &str, title: &str) -> bool {
    heading == title
        || heading
            .strip_prefix(title)
            .is_some_and(|rest| rest.starts_with(" ("))
}

/// Every `<DOC>.md, "Title", …` or `<DOC>.md ("Title", …)` citation in
/// `text` (lines already joined with single spaces), with its offset.
fn citations(text: &str) -> Vec<(usize, String, Vec<String>)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(".md").map(|i| from + i) {
        from = at + 3;
        let start = text[..at]
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || "_/.-".contains(c)))
            .map_or(0, |i| i + 1);
        if !text[start..at].starts_with(|c: char| c.is_ascii_alphanumeric()) {
            continue;
        }
        let doc = format!("{}.md", &text[start..at]);
        let mut rest = &text[at + 3..];
        rest = match rest
            .strip_prefix(", \"")
            .or_else(|| rest.strip_prefix(" (\""))
        {
            Some(r) => r,
            None => continue,
        };
        let mut titles = Vec::new();
        while let Some(close) = rest.find('"') {
            titles.push(rest[..close].to_string());
            match rest[close + 1..].strip_prefix(", \"") {
                Some(r) => rest = r,
                None => break,
            }
        }
        out.push((start, doc, titles));
    }
    out
}

/// A file's lines with their comment markers and indentation stripped,
/// joined by single spaces, and the offset each line starts at.
fn flatten(text: &str, markers: &[&str]) -> (String, Vec<usize>) {
    let (mut flat, mut starts) = (String::new(), Vec::new());
    for line in text.lines() {
        let mut line = line.trim();
        for m in markers {
            if let Some(rest) = line.strip_prefix(m) {
                line = rest.trim();
                break;
            }
        }
        starts.push(flat.len());
        flat.push_str(line);
        flat.push(' ');
    }
    (flat, starts)
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn docs_name_only_what_exists() {
    let jobs = smoke_jobs();
    let mut problems = Vec::new();
    for doc in docs() {
        let (spans, blocks) = code(&read(&doc));
        for span in &spans {
            for word in span.text.split_whitespace() {
                if let Some(p) = path_problem(word) {
                    problems.push(format!("{doc}:{}: {p}", span.line));
                }
            }
        }
        for piece in spans.iter().chain(&blocks) {
            for p in command_problems(&piece.text, &jobs) {
                problems.push(format!("{doc}:{}: {p}", piece.line));
            }
        }
    }
    for file in ["ci/smoke.sh", ".github/workflows/ci.yml"] {
        for (i, line) in read(file).lines().enumerate() {
            for p in command_problems(line, &jobs) {
                problems.push(format!("{file}:{}: {p}", i + 1));
            }
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
}

#[test]
fn cited_sections_exist() {
    let mut files: Vec<(String, &[&str])> = docs().into_iter().map(|d| (d, &[][..])).collect();
    files.push(("tools/sampler/README.md".into(), &[]));
    files.push(("ci/smoke.sh".into(), &["#"]));
    files.push((".github/workflows/ci.yml".into(), &["#"]));
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut sources);
    }
    sources.sort();
    for path in sources {
        let rel = path
            .strip_prefix(root())
            .unwrap()
            .to_string_lossy()
            .into_owned();
        files.push((rel, &["//!", "///", "//"]));
    }
    let mut problems = Vec::new();
    let mut cited = 0;
    for (file, markers) in files {
        let (flat, starts) = flatten(&read(&file), markers);
        for (offset, doc, titles) in citations(&flat) {
            let line = starts.partition_point(|&s| s <= offset);
            let target = [doc.clone(), format!("docs/{doc}")]
                .into_iter()
                .find(|d| root().join(d).is_file());
            let Some(target) = target else {
                problems.push(format!("{file}:{line}: cites {doc}, which does not exist"));
                continue;
            };
            let heads = headings(&read(&target));
            for title in titles {
                cited += 1;
                if !heads.iter().any(|h| titled(h, &title)) {
                    problems.push(format!(
                        "{file}:{line}: {target} has no section \"{title}\""
                    ));
                }
            }
        }
    }
    assert!(problems.is_empty(), "\n{}", problems.join("\n"));
    assert!(cited > 0, "no citation was found: the scan is broken");
}

#[test]
fn the_scanners_see_what_they_must() {
    let doc = "see `crates/a/{b,c}.rs` and `x.rs:3`\n\n```\ntamp-exp chaos \\\n  --strict\n```\n";
    let (spans, blocks) = code(doc);
    assert_eq!(spans.len(), 2);
    assert_eq!(
        expand("crates/a/{b,c}.rs"),
        ["crates/a/b.rs", "crates/a/c.rs"]
    );
    assert_eq!(blocks.len(), 1);
    assert_eq!(blocks[0].line, 4);
    let jobs = smoke_jobs();
    assert!(command_problems(&blocks[0].text, &jobs).is_empty());
    assert_eq!(command_problems("tamp-exp fig99 --bogus", &jobs).len(), 2);
    assert_eq!(command_problems("exp chaos --bogus", &jobs).len(), 1);
    assert_eq!(command_problems("ci/smoke.sh nope", &jobs).len(), 1);
    assert!(path_problem("x.rs:3").is_some());
    assert!(path_problem("net/recv_bytes").is_none());
    let (flat, _) = flatten("/// (docs/A.md,\n/// \"One\", \"Two\")", &["///"]);
    assert_eq!(
        citations(&flat),
        [(1, "docs/A.md".to_string(), vec!["One".into(), "Two".into()])]
    );
    assert!(titled(
        "Columnar directory (`Directory` columns)",
        "Columnar directory"
    ));
    assert!(!titled(
        "Request path, answered from memory",
        "Request path"
    ));
}
