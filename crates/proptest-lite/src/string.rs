//! The regular-expression subset `&str` strategies are written in: a
//! sequence of atoms — a literal character, a class `[a-z0-9_.-]`, or
//! `\PC` (any character that is not a control character) — each
//! optionally followed by `{m,n}`, `{n}` or `*`.

use crate::test_runner::TestRng;
use std::iter::Peekable;
use std::str::Chars;

/// `*` means at most this many repetitions.
const STAR_MAX: usize = 32;

/// Assigned, non-control characters `\PC` draws from, one range per draw
/// with equal weight: ASCII is listed as often as the others together, so
/// that half of all characters are the ones parsers give meaning to; the
/// rest are two-, three- and four-byte UTF-8.
const NON_CONTROL: [(char, char); 10] = [
    (' ', '~'),
    (' ', '~'),
    (' ', '~'),
    (' ', '~'),
    (' ', '~'),
    ('\u{a1}', '\u{ac}'),
    ('\u{ae}', '\u{ff}'),
    ('\u{391}', '\u{3a1}'),
    ('\u{4e00}', '\u{4eff}'),
    ('\u{1f600}', '\u{1f64f}'),
];

struct Atom {
    /// Inclusive character ranges.
    set: Vec<(char, char)>,
    min: usize,
    max: usize,
}

pub(crate) struct Pattern(Vec<Atom>);

impl Pattern {
    pub(crate) fn parse(pattern: &str) -> Self {
        let unsupported = |what: &str| -> ! { panic!("pattern {pattern:?}: {what}") };
        let mut atoms = Vec::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let set = match c {
                '[' => class(&mut chars).unwrap_or_else(|| unsupported("unterminated class")),
                '\\' => match (chars.next(), chars.next()) {
                    (Some('P'), Some('C')) => NON_CONTROL.to_vec(),
                    _ => unsupported("the only escape is \\PC"),
                },
                '(' | ')' | '|' | '.' | '+' | '?' | '^' | '$' | '{' | '*' => {
                    unsupported("unsupported operator")
                }
                literal => vec![(literal, literal)],
            };
            let (min, max) = match chars.peek() {
                Some('*') => {
                    chars.next();
                    (0, STAR_MAX)
                }
                Some('{') => {
                    chars.next();
                    let spec: String = chars.by_ref().take_while(|c| *c != '}').collect();
                    let parse = |n: &str| {
                        n.parse::<usize>()
                            .unwrap_or_else(|_| unsupported("bad repetition"))
                    };
                    match spec.split_once(',') {
                        Some((m, n)) => (parse(m), parse(n)),
                        None => (parse(&spec), parse(&spec)),
                    }
                }
                _ => (1, 1),
            };
            if min > max {
                unsupported("bad repetition");
            }
            atoms.push(Atom { set, min, max });
        }
        Self(atoms)
    }

    pub(crate) fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for atom in &self.0 {
            for _ in 0..rng.between(atom.min, atom.max) {
                let (low, high) = atom.set[rng.below(atom.set.len() as u64) as usize];
                let code = low as u32 + rng.below(u64::from(high as u32 - low as u32) + 1) as u32;
                out.push(char::from_u32(code).expect("ranges hold no surrogates"));
            }
        }
        out
    }
}

/// The ranges of a class, the opening `[` already consumed. A `-` that is
/// first or last stands for itself.
fn class(chars: &mut Peekable<Chars<'_>>) -> Option<Vec<(char, char)>> {
    let mut set = Vec::new();
    loop {
        let low = chars.next()?;
        if low == ']' {
            return (!set.is_empty()).then_some(set);
        }
        if chars.peek() == Some(&'-') {
            chars.next();
            match chars.next()? {
                ']' => {
                    set.extend([(low, low), ('-', '-')]);
                    return Some(set);
                }
                high if low <= high => set.push((low, high)),
                _ => return None,
            }
        } else {
            set.push((low, low));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn samples(pattern: &'static str) -> Vec<String> {
        (0..200)
            .map(|case| pattern.generate(&mut TestRng::for_case(pattern, case)))
            .collect()
    }

    #[test]
    fn classes_literals_and_repetitions() {
        for s in samples("[a-z][a-z0-9_.-]{0,11}") {
            let mut chars = s.chars();
            assert!(chars.next().unwrap().is_ascii_lowercase(), "{s:?}");
            assert!(s.len() <= 12, "{s:?}");
            assert!(
                chars.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.-".contains(c)),
                "{s:?}"
            );
        }
        for s in samples("[0-9]{8}T[0-9]{2}:[0-9]{2}") {
            assert_eq!(s.len(), 14, "{s:?}");
            assert_eq!(&s[8..9], "T");
            assert_eq!(&s[11..12], ":");
        }
        let lengths: Vec<usize> = samples("[ -~]{0,3}").iter().map(String::len).collect();
        assert!((0..=3).all(|n| lengths.contains(&n)));
    }

    #[test]
    fn non_control_draws_every_utf8_width_and_no_control_character() {
        let all: String = samples("\\PC*").concat();
        assert!(all.chars().all(|c| !c.is_control()));
        for width in 1..=4 {
            assert!(all.chars().any(|c| c.len_utf8() == width), "width {width}");
        }
        assert!(samples("\\PC{0,200}")
            .iter()
            .all(|s| s.chars().count() <= 200));
    }

    #[test]
    #[should_panic(expected = "unsupported operator")]
    fn operators_outside_the_subset_are_refused() {
        Pattern::parse("(a|b)+");
    }
}
