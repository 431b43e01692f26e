//! Output digests: FNV-1a/64 over exact output bytes, checked against the
//! values recorded in `perfbench/digests.txt` (regenerate with
//! `perfbench record` only when the simulator's outputs are meant to
//! change).

use std::collections::HashMap;

/// The recorded digests, compiled in so a run cannot read a stale file.
const RECORDED: &str = include_str!("../digests.txt");

/// FNV-1a, 64-bit, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut state: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{state:016x}")
}

/// Expected digest per `(workload, operation id)`.
pub struct Digests(HashMap<(String, String), String>);

impl Digests {
    pub fn recorded() -> Digests {
        Digests::parse(RECORDED)
    }

    fn parse(text: &str) -> Digests {
        let map = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .filter_map(|l| {
                let mut parts = l.split_whitespace();
                let workload = parts.next()?;
                let op = parts.next()?;
                let digest = parts.next()?;
                Some(((workload.to_owned(), op.to_owned()), digest.to_owned()))
            })
            .collect();
        Digests(map)
    }

    /// The recorded digest of `op`'s output, if there is one.
    pub fn expected(&self, workload: &str, op: &str) -> Option<&str> {
        self.0
            .get(&(workload.to_owned(), op.to_owned()))
            .map(String::as_str)
    }
}

/// Writes `digests.txt` from `(workload, op, bytes)` triples.
pub fn render(entries: &[(String, String, Vec<u8>)]) -> String {
    let mut out = String::from(
        "# Expected outputs of the benchmark workloads: FNV-1a/64 of each sweep\n\
         # CSV line and of each serve_mix response body without sim_wall_micros.\n\
         # Written by `perfbench record`; a changed line means a changed result.\n",
    );
    for (workload, op, bytes) in entries {
        out.push_str(&format!("{workload} {op} {}\n", fnv64(bytes)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), "cbf29ce484222325");
        assert_eq!(fnv64(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn parse_round_trips_render() {
        let entries = vec![("w".to_owned(), "op:1".to_owned(), b"bytes".to_vec())];
        let digests = Digests::parse(&render(&entries));
        assert_eq!(
            digests.expected("w", "op:1"),
            Some(fnv64(b"bytes").as_str())
        );
        assert_eq!(digests.expected("w", "op:2"), None);
    }
}
