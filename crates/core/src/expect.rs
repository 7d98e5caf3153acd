//! Expected-state tracking (§2).
//!
//! Monocle intercepts every rule modification the controller issues and
//! maintains the expected contents of each switch's flow table. The tracker
//! also counts the table's changes in an *epoch* (wrapping), which every
//! probe carries in its metadata. It decides little on return. A dynamic
//! probe is matched by its sequence number against the live probes of the
//! update it was sent for, whatever its epoch. A steady probe is dropped
//! when its epoch is not the last refresh's; every refresh discards the
//! outstanding steady probes anyway. `monocle_net::ProxyApp` also drops a
//! probe parked by backpressure whose epoch the table has moved past.

use monocle_openflow::table::ApplyResult;
use monocle_openflow::{FlowMod, FlowTable, Rule, RuleId, TableError};

/// The expected flow table of one switch.
#[derive(Debug, Clone, Default)]
pub struct ExpectedTable {
    table: FlowTable,
    epoch: u32,
}

impl ExpectedTable {
    /// Empty expectation.
    pub fn new() -> ExpectedTable {
        ExpectedTable::default()
    }

    /// The current epoch; bumped by every mutating command.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The expected table contents.
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Applies a proxied FlowMod, advancing the epoch.
    pub fn apply(&mut self, fm: &FlowMod) -> Result<ApplyResult, TableError> {
        let res = self.table.apply(fm)?;
        self.epoch = self.epoch.wrapping_add(1);
        Ok(res)
    }

    /// Looks up a rule.
    pub fn get(&self, id: RuleId) -> Option<&Rule> {
        self.table.get(id)
    }

    /// Ids of all rules, priority-descending.
    pub fn rule_ids(&self) -> Vec<RuleId> {
        self.table.rules().iter().map(|r| r.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::{Action, Match};

    #[test]
    fn epoch_advances_on_changes() {
        let mut e = ExpectedTable::new();
        assert_eq!(e.epoch(), 0);
        e.apply(&FlowMod::add(5, Match::any(), vec![Action::Output(1)]))
            .unwrap();
        assert_eq!(e.epoch(), 1);
        let fm = FlowMod::add(7, Match::any().with_tp_dst(80), vec![Action::Output(2)]);
        e.apply(&fm).unwrap();
        assert_eq!(e.epoch(), 2);
        assert_eq!(e.table().len(), 2);
    }

    #[test]
    fn mirrors_flowmod_semantics() {
        let mut e = ExpectedTable::new();
        let m = Match::any().with_tp_dst(80);
        e.apply(&FlowMod::add(7, m, vec![Action::Output(2)]))
            .unwrap();
        e.apply(&FlowMod::delete_strict(7, m)).unwrap();
        assert_eq!(e.table().len(), 0);
        assert_eq!(e.epoch(), 2);
    }

    #[test]
    fn rule_ids_priority_order() {
        let mut e = ExpectedTable::new();
        e.apply(&FlowMod::add(1, Match::any().with_tp_dst(1), vec![]))
            .unwrap();
        e.apply(&FlowMod::add(9, Match::any().with_tp_dst(2), vec![]))
            .unwrap();
        let ids = e.rule_ids();
        assert_eq!(ids.len(), 2);
        assert_eq!(e.get(ids[0]).unwrap().priority, 9);
    }
}
