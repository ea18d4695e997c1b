//! `Range` / `If-Range` semantics for the front tier.
//!
//! The front door maps HTTP byte ranges onto block reads, so range
//! evaluation lives here as a pure function: given the request headers,
//! the file size, and the file's entity tag, decide whether to serve the
//! full body (`200`), a single byte range (`206`), or a range error
//! (`416`). The subset implemented is the one the RFC makes mandatory for
//! a server that advertises `Accept-Ranges: bytes`:
//!
//! * `bytes=a-b`, `bytes=a-`, and suffix `bytes=-n` forms;
//! * last-byte positions past the end are clamped (RFC 9110 §14.1.2);
//! * a suffix longer than the file selects the whole file (still `206`);
//! * a first-byte position at/after the end — or any range against an
//!   empty file — is unsatisfiable → `416` with `Content-Range: bytes
//!   */<size>`;
//! * `If-Range` with a non-matching validator downgrades to a full `200`
//!   (RFC 9110 §13.1.5);
//! * anything else (malformed specs, other units, multiple ranges) is
//!   ignored and the full body served — always a legal answer, since
//!   `Range` is an optimization, not an obligation.

use crate::http::Headers;
use ccm_core::FileId;

/// How a request's range headers resolve against a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeOutcome {
    /// Serve the whole body with `200` (no `Range`, an ignorable `Range`,
    /// or an `If-Range` mismatch).
    Full,
    /// Serve bytes `start..=end` with `206` and a `Content-Range`.
    Partial {
        /// First byte position (inclusive).
        start: u64,
        /// Last byte position (inclusive), `< size`.
        end: u64,
    },
    /// No byte of the selection is satisfiable → `416`.
    Unsatisfiable,
}

/// The strong entity tag the front tier hands out for a catalog file.
/// Synthetic content is a pure function of `(file, size)`, so this is a
/// strong validator in the RFC sense.
pub fn etag(file: FileId, size: u64) -> String {
    format!("\"f{}-{}\"", file.0, size)
}

/// One parsed `bytes=` range spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spec {
    /// `a-b` (b may be absent → u64::MAX sentinel handled by caller).
    FromTo(u64, Option<u64>),
    /// `-n`: the final n bytes.
    Suffix(u64),
}

/// Parse a `Range` header value holding exactly one `bytes=` spec.
/// Returns `None` for anything this tier chooses to ignore (other units,
/// multiple ranges, malformed specs).
fn parse_single_range(value: &str) -> Option<Spec> {
    let rest = value.trim().strip_prefix("bytes=")?;
    if rest.contains(',') {
        return None; // multipart/byteranges is not worth its framing here
    }
    let rest = rest.trim();
    if let Some(n) = rest.strip_prefix('-') {
        return n.parse().ok().map(Spec::Suffix);
    }
    let (a, b) = rest.split_once('-')?;
    let start: u64 = a.trim().parse().ok()?;
    let end = match b.trim() {
        "" => None,
        s => Some(s.parse().ok()?),
    };
    if let Some(e) = end {
        if e < start {
            return None; // backwards range: ignore, serve full
        }
    }
    Some(Spec::FromTo(start, end))
}

/// Resolve the request's `Range`/`If-Range` headers against a file of
/// `size` bytes whose current strong validator is `current_etag`.
pub fn evaluate(headers: &Headers, size: u64, current_etag: &str) -> RangeOutcome {
    let Some(range) = headers.get("range") else {
        return RangeOutcome::Full;
    };
    // If-Range: only honor the Range when the validator still matches;
    // a stale (or date-shaped, which we never issue) validator means the
    // client's partial copy may not splice, so send the whole file.
    if let Some(validator) = headers.get("if-range") {
        if validator.trim() != current_etag {
            return RangeOutcome::Full;
        }
    }
    let Some(spec) = parse_single_range(range) else {
        return RangeOutcome::Full;
    };
    match spec {
        Spec::Suffix(0) => RangeOutcome::Unsatisfiable,
        Spec::Suffix(n) => {
            if size == 0 {
                RangeOutcome::Unsatisfiable
            } else {
                RangeOutcome::Partial {
                    start: size.saturating_sub(n),
                    end: size - 1,
                }
            }
        }
        Spec::FromTo(start, end) => {
            if start >= size {
                return RangeOutcome::Unsatisfiable; // also covers size == 0
            }
            let end = end.map_or(size - 1, |e| e.min(size - 1));
            RangeOutcome::Partial { start, end }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_range(value: &str) -> Headers {
        let mut h = Headers::new();
        h.push("Range", value);
        h
    }

    #[test]
    fn no_range_is_full() {
        assert_eq!(evaluate(&Headers::new(), 100, "\"e\""), RangeOutcome::Full);
    }

    #[test]
    fn bounded_range() {
        assert_eq!(
            evaluate(&with_range("bytes=2-7"), 100, "\"e\""),
            RangeOutcome::Partial { start: 2, end: 7 }
        );
    }

    #[test]
    fn open_range_runs_to_the_last_byte() {
        assert_eq!(
            evaluate(&with_range("bytes=90-"), 100, "\"e\""),
            RangeOutcome::Partial { start: 90, end: 99 }
        );
    }

    #[test]
    fn overlong_end_is_clamped() {
        assert_eq!(
            evaluate(&with_range("bytes=50-1000"), 100, "\"e\""),
            RangeOutcome::Partial { start: 50, end: 99 }
        );
    }

    #[test]
    fn suffix_selects_the_tail() {
        assert_eq!(
            evaluate(&with_range("bytes=-10"), 100, "\"e\""),
            RangeOutcome::Partial { start: 90, end: 99 }
        );
    }

    #[test]
    fn overlong_suffix_selects_the_whole_file() {
        assert_eq!(
            evaluate(&with_range("bytes=-500"), 100, "\"e\""),
            RangeOutcome::Partial { start: 0, end: 99 }
        );
    }

    #[test]
    fn unsatisfiable_cases() {
        for (range, size) in [
            ("bytes=100-", 100),
            ("bytes=100-200", 100),
            ("bytes=-0", 100),
            ("bytes=0-", 0),
            ("bytes=-5", 0),
        ] {
            assert_eq!(
                evaluate(&with_range(range), size, "\"e\""),
                RangeOutcome::Unsatisfiable,
                "{range} against size {size}"
            );
        }
    }

    #[test]
    fn ignorable_forms_serve_full() {
        for range in [
            "blocks=0-1",
            "bytes=1-2,4-5",
            "bytes=7-2",
            "bytes=x-y",
            "bytes=",
            "bytes=-",
        ] {
            assert_eq!(
                evaluate(&with_range(range), 100, "\"e\""),
                RangeOutcome::Full,
                "{range} should be ignored"
            );
        }
    }

    #[test]
    fn if_range_gates_the_range() {
        let mut h = with_range("bytes=0-4");
        h.push("If-Range", "\"stale\"");
        assert_eq!(evaluate(&h, 100, "\"fresh\""), RangeOutcome::Full);

        let mut h = with_range("bytes=0-4");
        h.push("If-Range", "\"fresh\"");
        assert_eq!(
            evaluate(&h, 100, "\"fresh\""),
            RangeOutcome::Partial { start: 0, end: 4 }
        );
    }

    #[test]
    fn etag_is_a_quoted_strong_validator() {
        let t = etag(FileId(7), 1234);
        assert_eq!(t, "\"f7-1234\"");
        assert_ne!(t, etag(FileId(7), 1235), "size participates");
        assert_ne!(t, etag(FileId(8), 1234), "file id participates");
    }
}
