//! The three true systolic dataflows considered by the paper (Section II-A).

use std::fmt;
use std::str::FromStr;

/// Mapping strategy ("dataflow") for a systolic array.
///
/// The *stationarity* of a dataflow names the tensor whose elements stay put
/// in the processing elements for the longest time (Fig. 3 of the paper). The
/// choice of dataflow decides which workload dimension is mapped onto array
/// rows, which onto columns, and which unrolls in time — see
/// [`GemmShape::project`](crate::GemmShape::project) and Table III.
///
/// The string forms accepted by [`FromStr`] are the ones used in SCALE-Sim
/// configuration files: `"os"`, `"ws"`, `"is"` (case-insensitive).
///
/// ```
/// use scalesim_topology::Dataflow;
/// let df: Dataflow = "ws".parse()?;
/// assert_eq!(df, Dataflow::WeightStationary);
/// # Ok::<(), scalesim_topology::ParseTopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataflow {
    /// Each PE owns one OFMAP pixel and accumulates it in place.
    OutputStationary,
    /// Filter weights are pre-filled into the array; IFMAP streams through.
    WeightStationary,
    /// IFMAP elements are pre-filled; filter weights stream through.
    InputStationary,
}

impl Dataflow {
    /// All three dataflows, in the order the paper introduces them.
    ///
    /// ```
    /// assert_eq!(scalesim_topology::Dataflow::ALL.len(), 3);
    /// ```
    pub const ALL: [Dataflow; 3] = [
        Dataflow::OutputStationary,
        Dataflow::WeightStationary,
        Dataflow::InputStationary,
    ];

    /// The short mnemonic used in SCALE-Sim config files (`os`/`ws`/`is`).
    ///
    /// ```
    /// use scalesim_topology::Dataflow;
    /// assert_eq!(Dataflow::OutputStationary.mnemonic(), "os");
    /// ```
    pub fn mnemonic(self) -> &'static str {
        match self {
            Dataflow::OutputStationary => "os",
            Dataflow::WeightStationary => "ws",
            Dataflow::InputStationary => "is",
        }
    }
}

impl fmt::Display for Dataflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for Dataflow {
    type Err = crate::ParseTopologyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "os" | "output_stationary" => Ok(Dataflow::OutputStationary),
            "ws" | "weight_stationary" => Ok(Dataflow::WeightStationary),
            "is" | "input_stationary" => Ok(Dataflow::InputStationary),
            _ => Err(crate::ParseTopologyError::InvalidNumber {
                line: 0,
                column: "dataflow",
                text: s.to_owned(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnemonics_round_trip() {
        for df in Dataflow::ALL {
            let parsed: Dataflow = df.mnemonic().parse().expect("mnemonic parses");
            assert_eq!(parsed, df);
        }
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        assert_eq!(
            " OS ".parse::<Dataflow>().unwrap(),
            Dataflow::OutputStationary
        );
        assert_eq!(
            "Ws".parse::<Dataflow>().unwrap(),
            Dataflow::WeightStationary
        );
    }

    #[test]
    fn parse_rejects_unknown() {
        assert!("rs".parse::<Dataflow>().is_err());
        assert!("".parse::<Dataflow>().is_err());
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(Dataflow::InputStationary.to_string(), "is");
    }
}
