//! # tamp-regexlite — a small, dependency-free regex engine
//!
//! The membership service API supports "regular expressions both in the
//! service name and the partition list" (paper §5). This crate provides
//! the engine behind that: a classic Thompson-NFA construction with
//! breadth-first simulation, so matching is **linear** in the input length
//! and never backtracks (no pathological inputs, which matters for a
//! lookup that sits on the request path of every service invocation).
//!
//! Supported syntax:
//!
//! | Form | Meaning |
//! |---|---|
//! | `a`, `\*` | literal character (escape metacharacters with `\`) |
//! | `.` | any single character |
//! | `[abc]`, `[a-z0-9]`, `[^abc]` | character classes, ranges, negation |
//! | `\d`, `\w`, `\s` (+ negations, and inside classes) | digit / word / whitespace shorthands |
//! | `x*`, `x+`, `x?` | zero-or-more, one-or-more, optional |
//! | `x{2}`, `x{1,3}`, `x{2,}` | counted repetition |
//! | `ab`, `a\|b` | concatenation and alternation |
//! | `(ab)+` | grouping |
//! | `^`, `$` | anchors |
//!
//! [`Regex::is_match`] performs *unanchored* (substring) search;
//! [`Regex::matches_full`] requires the whole input to match — the
//! directory lookup uses full matching, mirroring how service names are
//! matched in the paper's implementation.
//!
//! ```
//! use tamp_regexlite::Regex;
//!
//! let re = Regex::new("doc-(server|cache)[0-9]+").unwrap();
//! assert!(re.matches_full("doc-server12"));
//! assert!(!re.matches_full("doc-proxy1"));
//! assert!(re.is_match("prod doc-cache7 node"));
//! ```

mod nfa;
mod parser;

pub use parser::ParseError;

use nfa::Program;

/// A compiled regular expression.
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
}

impl Regex {
    /// Compile a pattern. Returns a [`ParseError`] describing the first
    /// syntax problem found.
    pub fn new(pattern: &str) -> Result<Self, ParseError> {
        let ast = parser::parse(pattern)?;
        let program = Program::compile(&ast);
        Ok(Regex {
            pattern: pattern.to_string(),
            program,
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// True if the pattern matches anywhere in `input` (unanchored unless
    /// the pattern itself is anchored).
    pub fn is_match(&self, input: &str) -> bool {
        self.program.search(input, false)
    }

    /// True if the pattern matches the *entire* input.
    pub fn matches_full(&self, input: &str) -> bool {
        self.program.search(input, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(pat: &str, s: &str) -> bool {
        Regex::new(pat).unwrap().matches_full(s)
    }

    fn find(pat: &str, s: &str) -> bool {
        Regex::new(pat).unwrap().is_match(s)
    }

    #[test]
    fn literal_match() {
        assert!(full("abc", "abc"));
        assert!(!full("abc", "abd"));
        assert!(!full("abc", "abcd"));
        assert!(!full("abc", "ab"));
    }

    #[test]
    fn dot_matches_any_single() {
        assert!(full("a.c", "abc"));
        assert!(full("a.c", "axc"));
        assert!(!full("a.c", "ac"));
        assert!(!full("a.c", "abbc"));
    }

    #[test]
    fn star_plus_question() {
        assert!(full("ab*c", "ac"));
        assert!(full("ab*c", "abbbc"));
        assert!(!full("ab+c", "ac"));
        assert!(full("ab+c", "abc"));
        assert!(full("ab?c", "ac"));
        assert!(full("ab?c", "abc"));
        assert!(!full("ab?c", "abbc"));
    }

    #[test]
    fn counted_repetition() {
        assert!(full("a{3}", "aaa"));
        assert!(!full("a{3}", "aa"));
        assert!(!full("a{3}", "aaaa"));
        assert!(full("a{2,4}", "aa"));
        assert!(full("a{2,4}", "aaaa"));
        assert!(!full("a{2,4}", "aaaaa"));
        assert!(full("a{2,}", "aaaaaaa"));
        assert!(!full("a{2,}", "a"));
    }

    #[test]
    fn character_classes() {
        assert!(full("[abc]+", "cab"));
        assert!(!full("[abc]+", "cad"));
        assert!(full("[a-z0-9]+", "node42"));
        assert!(full("[^0-9]+", "nodename"));
        assert!(!full("[^0-9]+", "node42"));
        // '-' first or last is a literal dash.
        assert!(full("[-a]+", "a-a"));
        assert!(full("[a-]+", "-aa"));
    }

    #[test]
    fn alternation_and_groups() {
        assert!(full("cat|dog", "cat"));
        assert!(full("cat|dog", "dog"));
        assert!(!full("cat|dog", "cow"));
        assert!(full("(ab)+", "ababab"));
        assert!(!full("(ab)+", "aba"));
        assert!(full("a(b|c)d", "abd"));
        assert!(full("a(b|c)d", "acd"));
    }

    #[test]
    fn empty_pattern_matches_empty() {
        assert!(full("", ""));
        assert!(!full("", "a"));
        assert!(find("", "anything"));
    }

    #[test]
    fn anchors() {
        let re = Regex::new("^abc").unwrap();
        assert!(re.is_match("abcdef"));
        assert!(!re.is_match("xabc"));
        let re = Regex::new("abc$").unwrap();
        assert!(re.is_match("xxabc"));
        assert!(!re.is_match("abcx"));
        let re = Regex::new("^abc$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("abcd"));
    }

    #[test]
    fn unanchored_search_finds_substring() {
        assert!(find("b+", "aaabbbccc"));
        assert!(!find("d+", "aaabbbccc"));
        assert!(find("a.c", "zzabczz"));
    }

    #[test]
    fn escapes() {
        assert!(full(r"a\.c", "a.c"));
        assert!(!full(r"a\.c", "abc"));
        assert!(full(r"\*\+\?", "*+?"));
        assert!(full(r"a\\b", r"a\b"));
        assert!(full(r"\[x\]", "[x]"));
    }

    #[test]
    fn unicode_input() {
        assert!(full("héllo", "héllo"));
        assert!(full("h.llo", "héllo"));
        assert!(full(".*", "日本語テキスト"));
        assert!(full(".{7}", "日本語テキスト"));
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::new("a(bc").is_err());
        assert!(Regex::new("a)b").is_err());
        assert!(Regex::new("[abc").is_err());
        assert!(Regex::new("*a").is_err());
        assert!(Regex::new("a{").is_err());
        assert!(Regex::new("a{3,2}").is_err());
        assert!(Regex::new("a\\").is_err());
    }

    #[test]
    fn pathological_patterns_run_fast() {
        // The classic backtracking killer: (a+)+ against a^n b.
        // Thompson simulation handles this in linear time.
        let re = Regex::new("(a+)+$").unwrap();
        let input = format!("{}b", "a".repeat(2000));
        let start = std::time::Instant::now();
        assert!(!re.matches_full(&input));
        assert!(start.elapsed().as_millis() < 2000, "regex not linear-time");
    }

    #[test]
    fn service_name_patterns_from_paper() {
        // The kinds of lookups the Neptune consumer performs.
        assert!(full("index.*", "index-server"));
        assert!(full("(doc|index)-server", "doc-server"));
    }

    #[test]
    fn pattern_accessor() {
        assert_eq!(Regex::new("a+b").unwrap().pattern(), "a+b");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Compiling + matching arbitrary patterns must never panic.
        #[test]
        fn never_panics(pat in "\\PC{0,24}", input in "\\PC{0,48}") {
            if let Ok(re) = Regex::new(&pat) {
                let _ = re.is_match(&input);
                let _ = re.matches_full(&input);
            }
        }

        /// A literal (escaped) pattern matches exactly itself.
        #[test]
        fn escaped_literal_matches_self(s in "[a-zA-Z0-9 .*+?()\\[\\]|^$\\\\{}-]{0,16}") {
            let escaped: String = s.chars().flat_map(|c| {
                if "\\.*+?()[]|^${}".contains(c) {
                    vec!['\\', c]
                } else {
                    vec![c]
                }
            }).collect();
            let re = Regex::new(&escaped).unwrap();
            prop_assert!(re.matches_full(&s));
        }

        /// Full match implies substring match.
        #[test]
        fn full_implies_search(pat in "[a-c.*+?|()]{1,10}", input in "[a-c]{0,12}") {
            if let Ok(re) = Regex::new(&pat) {
                if re.matches_full(&input) {
                    prop_assert!(re.is_match(&input));
                }
            }
        }

        /// `x` matching implies `x*` and `x+` also match (full, repeated).
        #[test]
        fn star_superset(input in "[ab]{1,8}") {
            let re_plus = Regex::new("(a|b)+").unwrap();
            let re_star = Regex::new("(a|b)*").unwrap();
            prop_assert!(re_plus.matches_full(&input));
            prop_assert!(re_star.matches_full(&input));
            prop_assert!(re_star.matches_full(""));
            prop_assert!(!re_plus.matches_full(""));
        }
    }
}

#[cfg(test)]
mod shorthand_tests {
    use super::*;

    fn full(pat: &str, s: &str) -> bool {
        Regex::new(pat).unwrap().matches_full(s)
    }

    #[test]
    fn digit_class() {
        assert!(full(r"\d+", "12345"));
        assert!(!full(r"\d+", "12a45"));
        assert!(full(r"part-\d", "part-7"));
        assert!(full(r"\D+", "abc-"));
        assert!(!full(r"\D+", "ab3"));
    }

    #[test]
    fn word_class() {
        assert!(full(r"\w+", "node_42"));
        assert!(!full(r"\w+", "node 42"));
        assert!(full(r"\W", "-"));
        assert!(!full(r"\W", "x"));
    }

    #[test]
    fn space_class() {
        assert!(full(r"a\sb", "a b"));
        assert!(full(r"a\s+b", "a \t b"));
        assert!(!full(r"a\sb", "axb"));
        assert!(full(r"\S+", "no-spaces"));
    }

    #[test]
    fn shorthand_composes_with_repeats_and_groups() {
        assert!(full(r"(\w+-\d+,?)+", "idx-1,doc-23,web-456"));
        assert!(full(r"svc\d{2}", "svc42"));
        assert!(!full(r"svc\d{2}", "svc4"));
    }
}

#[cfg(test)]
mod class_shorthand_tests {
    use super::Regex;

    #[test]
    fn shorthand_inside_classes() {
        let re = Regex::new(r"[\d-]+").unwrap();
        assert!(re.matches_full("1-3"));
        assert!(!re.matches_full("1-3,7"), "comma is not in [\\d-]");
        assert!(!re.matches_full("a-b"));
        let re = Regex::new(r"[\w.]+").unwrap();
        assert!(re.matches_full("doc.server_1"));
        assert!(!re.matches_full("doc server"));
    }

    #[test]
    fn negated_shorthand_rejected_in_class() {
        assert!(Regex::new(r"[\D]").is_err());
        assert!(Regex::new(r"[\W\s]").is_err());
    }
}
