//! The ledger gate: per query, `count(G_0) + Σ ΔM` must equal a
//! from-scratch recount of the final graph.

/// One query's running ledger.
#[derive(Clone, Debug)]
pub struct Ledger {
    pub query: String,
    pub base: i64,
    pub sum_delta: i64,
}

impl Ledger {
    pub fn new(query: impl Into<String>, base: i64) -> Self {
        Self { query: query.into(), base, sum_delta: 0 }
    }

    pub fn add(&mut self, delta: i64) {
        self.sum_delta += delta;
    }

    /// Compare against the recount of the final graph.
    pub fn check(&self, recount: i64) -> Result<(), String> {
        let expect = self.base + self.sum_delta;
        if expect == recount {
            Ok(())
        } else {
            Err(format!(
                "ledger mismatch for {}: count(G_0) {} + ΣΔM {} = {} but the final graph recounts {}",
                self.query, self.base, self.sum_delta, expect, recount
            ))
        }
    }
}

/// Test hook: when set, the first ΔM entered into a ledger is off by one,
/// which the gate must catch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tamper(pub bool);

impl Tamper {
    /// The ΔM to record for batch `index`.
    pub fn apply(self, index: usize, delta: i64) -> i64 {
        if self.0 && index == 0 {
            delta + 1
        } else {
            delta
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_accepts_consistent_and_rejects_off_by_one() {
        let mut l = Ledger::new("Q1", 10);
        l.add(5);
        l.add(-3);
        assert!(l.check(12).is_ok());
        assert!(l.check(13).is_err());
    }
}
