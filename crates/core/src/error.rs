//! Error types for the FPRAS.

use std::fmt;

/// Errors from running the FPRAS.
#[derive(Debug, Clone, PartialEq)]
pub enum FprasError {
    /// A parameter was out of range (ε and δ must lie in `(0, 1)`, sample
    /// budgets must be positive).
    InvalidParams(String),
    /// The configured membership-operation budget was exhausted before the
    /// run finished.
    BudgetExceeded {
        /// Operations performed when the budget tripped.
        ops: u64,
    },
    /// The per-level views or the DP table of a length-`n` run cannot be
    /// reserved: their size overflows, or the allocator refused them.
    /// Raised before any of that memory is touched.
    HorizonTooLarge {
        /// The length asked for.
        n: usize,
    },
}

impl From<fpras_automata::HorizonTooLarge> for FprasError {
    fn from(e: fpras_automata::HorizonTooLarge) -> Self {
        FprasError::HorizonTooLarge { n: e.n }
    }
}

impl fmt::Display for FprasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FprasError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            FprasError::BudgetExceeded { ops } => {
                write!(f, "membership-operation budget exceeded after {ops} operations")
            }
            FprasError::HorizonTooLarge { n } => {
                write!(f, "length {n} needs more memory than can be reserved")
            }
        }
    }
}

impl std::error::Error for FprasError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = FprasError::InvalidParams("eps must be positive".into());
        assert!(e.to_string().contains("eps must be positive"));
        let b = FprasError::BudgetExceeded { ops: 42 };
        assert!(b.to_string().contains("42"));
        let h = FprasError::from(fpras_automata::HorizonTooLarge { n: 1 << 60 });
        assert_eq!(h, FprasError::HorizonTooLarge { n: 1 << 60 });
        assert!(h.to_string().contains("1152921504606846976"));
    }
}
