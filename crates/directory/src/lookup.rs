//! Service lookup: the consumer-facing query API of the yellow pages.
//!
//! Mirrors the paper's `MClient::lookup_service(service, partition,
//! machines)` (§5): both the service name and the partition list accept
//! regular expressions, and the result is a `MachineList` — per machine, a
//! list of attribute key/value pairs describing machine and service
//! configuration.

use crate::Directory;
use std::sync::Arc;
use tamp_regexlite::Regex;
use tamp_wire::{NodeId, PartitionSet};

/// A compiled lookup query.
///
/// * `service` is a regex matched against the full service name.
/// * `partition` is either a partition-list expression (`"0"`, `"1-3,7"`),
///   in which case a machine matches when it hosts **any** of the listed
///   partitions, or a regex matched against each hosted partition id's
///   decimal form (so `".*"` matches any machine hosting the service at
///   all, even with no partitions... except a machine with zero partitions
///   has nothing to match — pass `""` or `"*"` for that: any machine
///   exporting the service, regardless of partitions).
#[derive(Debug, Clone)]
pub struct LookupQuery {
    service: Regex,
    partition: PartitionFilter,
}

#[derive(Debug, Clone)]
enum PartitionFilter {
    /// Match any machine exporting the service, regardless of partitions.
    Any,
    /// Match if the machine hosts at least one of these partitions.
    Set(PartitionSet),
    /// Match if any hosted partition's decimal string matches.
    Pattern(Regex),
}

/// One lookup result: the paper's `Machine` — a list of attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Machine {
    pub node: NodeId,
    /// Partitions of the matched service hosted by this machine.
    pub partitions: PartitionSet,
    /// Matched service name (useful when the query was a pattern).
    pub service: String,
    /// Machine attributes followed by service attributes.
    pub attrs: Vec<(String, String)>,
}

/// Lookup error: the query itself was malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError(pub String);

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad lookup query: {}", self.0)
    }
}

impl std::error::Error for QueryError {}

impl LookupQuery {
    /// Build a query from the paper's two string arguments.
    pub fn new(service: &str, partition: &str) -> Result<Self, QueryError> {
        let service =
            Regex::new(service).map_err(|e| QueryError(format!("service pattern: {e}")))?;
        let partition = if partition.is_empty() || partition == "*" {
            PartitionFilter::Any
        } else if let Some(set) = PartitionSet::parse(partition) {
            PartitionFilter::Set(set)
        } else {
            PartitionFilter::Pattern(
                Regex::new(partition).map_err(|e| QueryError(format!("partition pattern: {e}")))?,
            )
        };
        Ok(LookupQuery { service, partition })
    }

    fn partitions_match(&self, hosted: &PartitionSet) -> bool {
        match &self.partition {
            PartitionFilter::Any => true,
            PartitionFilter::Set(want) => want.intersects(hosted),
            PartitionFilter::Pattern(re) => hosted.iter().any(|p| re.matches_full(&p.to_string())),
        }
    }
}

impl Directory {
    /// Find every machine exporting a service matching the query. Results
    /// are sorted by node id for determinism.
    pub fn lookup(&self, query: &LookupQuery) -> Vec<Machine> {
        let mut out = Vec::new();
        for e in self.entries() {
            for s in &e.services {
                if query.service.matches_full(&s.name) && query.partitions_match(&s.partitions) {
                    let mut attrs = e.attrs.clone();
                    attrs.extend(s.attrs.iter().cloned());
                    out.push(Machine {
                        node: e.node,
                        partitions: s.partitions.clone(),
                        service: s.name.clone(),
                        attrs,
                    });
                }
            }
        }
        out.sort_by(|a, b| (a.node, &a.service).cmp(&(b.node, &b.service)));
        out
    }

    /// Request routing: the nodes currently believed to host `partition`
    /// of the service named exactly `service` (`None` = any partition,
    /// including none), in `NodeId` order, once per matching declaration.
    ///
    /// The typed counterpart of [`Directory::lookup`] for callers that
    /// already hold a literal name and a partition number: no pattern is
    /// compiled. For a metacharacter-free name it yields exactly the
    /// `.node`s that `lookup_service` returns for the partition's decimal
    /// form (`""` for `None`), in the same order and multiplicity.
    ///
    /// A view is resolved many times between two changes, so the answer
    /// is scanned once and then shared: the directory keeps it until a
    /// row is put in, taken out or given a new payload, and a caller
    /// holds it as long as it likes. A name no row declares is answered
    /// by a scan every time and never kept, so names off the wire cannot
    /// grow the memo.
    pub fn providers(&self, service: &str, partition: Option<u16>) -> Arc<[NodeId]> {
        let answers = self.answers.get();
        if let Some(kept) = answers
            .lock()
            .get(service)
            .and_then(|parts| parts.get(&partition))
        {
            debug_assert_eq!(
                **kept,
                *self.scan_providers(service, partition).1,
                "a kept answer for {service:?} {partition:?} outlived a row change"
            );
            return Arc::clone(kept);
        }
        let (declared, found) = self.scan_providers(service, partition);
        let found: Arc<[NodeId]> = found.into();
        if declared {
            (answers.lock().entry(service.into()).or_default())
                .insert(partition, Arc::clone(&found));
        }
        found
    }

    /// The scan behind [`Directory::providers`]: whether any row declares
    /// `service` at all, and the matching nodes.
    fn scan_providers(&self, service: &str, partition: Option<u16>) -> (bool, Vec<NodeId>) {
        let mut declared = false;
        let mut found = Vec::new();
        for row in self.pages.iter().flat_map(|p| p.rows()) {
            for s in row.payload().services.iter().filter(|s| s.name == service) {
                declared = true;
                if partition.is_none_or(|p| s.partitions.contains(p)) {
                    found.push(row.key.node);
                }
            }
        }
        (declared, found)
    }

    /// Convenience: lookup by raw strings (compiles the query each call).
    pub fn lookup_service(
        &self,
        service: &str,
        partition: &str,
    ) -> Result<Vec<Machine>, QueryError> {
        Ok(self.lookup(&LookupQuery::new(service, partition)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Provenance;
    use tamp_wire::{NodeRecord, ServiceDecl};

    fn directory() -> Directory {
        let mut d = Directory::new();
        let n1 = NodeRecord::new(NodeId(1), 1)
            .with_service(ServiceDecl::new(
                "index",
                PartitionSet::parse("0-1").unwrap(),
            ))
            .with_attr("mem", "4G");
        let n2 = NodeRecord::new(NodeId(2), 1)
            .with_service(ServiceDecl::new("index", PartitionSet::parse("2").unwrap()))
            .with_service({
                let mut s = ServiceDecl::new("doc", PartitionSet::parse("0").unwrap());
                s.attrs.push(("Port".into(), "8080".into()));
                s
            });
        let n3 = NodeRecord::new(NodeId(3), 1)
            .with_service(ServiceDecl::new("doc", PartitionSet::parse("1-2").unwrap()));
        d.apply_join(n1, Provenance::Direct, 0);
        d.apply_join(n2, Provenance::Direct, 0);
        d.apply_join(n3, Provenance::Direct, 0);
        d
    }

    #[test]
    fn exact_service_any_partition() {
        let d = directory();
        let m = d.lookup_service("index", "").unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].node, NodeId(1));
        assert_eq!(m[1].node, NodeId(2));
    }

    #[test]
    fn partition_list_filters() {
        let d = directory();
        // Only node 1 hosts index partitions 0-1.
        let m = d.lookup_service("index", "0-1").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].node, NodeId(1));
        // Partition 2 of index: node 2 only.
        let m = d.lookup_service("index", "2").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].node, NodeId(2));
    }

    #[test]
    fn service_regex_matches_multiple() {
        let d = directory();
        let m = d.lookup_service("(index|doc)", "").unwrap();
        // n1 index, n2 index, n2 doc, n3 doc.
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn partition_regex() {
        let d = directory();
        // Partitions whose decimal form matches [12]: doc partitions 1,2
        // on node 3 and index partition 1 on node 1, index 2 on node 2.
        let m = d.lookup_service(".*", "[12]").unwrap();
        let nodes: Vec<u32> = m.iter().map(|m| m.node.0).collect();
        assert_eq!(nodes, vec![1, 2, 3]);
    }

    #[test]
    fn attrs_merge_machine_then_service() {
        let d = directory();
        let m = d.lookup_service("doc", "0").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].node, NodeId(2));
        assert!(m[0].attrs.iter().any(|(k, v)| k == "Port" && v == "8080"));
    }

    #[test]
    fn machine_attr_included() {
        let d = directory();
        let m = d.lookup_service("index", "0").unwrap();
        assert!(m[0].attrs.iter().any(|(k, v)| k == "mem" && v == "4G"));
    }

    #[test]
    fn no_match_empty() {
        let d = directory();
        assert!(d.lookup_service("cache", "").unwrap().is_empty());
        assert!(d.lookup_service("index", "9").unwrap().is_empty());
    }

    #[test]
    fn bad_patterns_are_errors() {
        let d = directory();
        assert!(d.lookup_service("ind(ex", "").is_err());
        // An unparseable partition list falls back to regex; if that fails
        // too, it's an error.
        assert!(d.lookup_service("index", "((").is_err());
    }

    #[test]
    fn star_partition_means_any() {
        let d = directory();
        let all = d.lookup_service("doc", "*").unwrap();
        assert_eq!(all.len(), 2);
    }

    /// What the router's hit ratio rests on: a refresh keeps the
    /// answer, a change drops it.
    #[test]
    fn providers_answer_is_kept_until_a_row_changes() {
        let mut d = directory();
        let relayed = NodeRecord::new(NodeId(4), 1);
        d.apply_join(relayed.clone(), Provenance::Relayed(NodeId(1)), 0);
        let kept = d.providers("doc", Some(1));
        assert_eq!(*kept, [NodeId(3)]);
        let still = |d: &Directory| Arc::ptr_eq(&kept, &d.providers("doc", Some(1)));
        // A same-incarnation heartbeat refresh.
        let n3 = d.get(NodeId(3)).unwrap().record();
        assert!(!d.apply_join(n3, Provenance::Direct, 5).changed());
        assert!(still(&d));
        // A provenance re-stamp: relayed knowledge re-attributed.
        d.apply_join(relayed, Provenance::Relayed(NodeId(2)), 6);
        let restamped = d.get(NodeId(4)).unwrap().provenance;
        assert_eq!(restamped, Provenance::Relayed(NodeId(2)));
        assert!(still(&d));
        assert!(d.refresh(NodeId(3), 7));
        assert!(still(&d));
        // A provider joins: a fresh answer.
        let n5 = NodeRecord::new(NodeId(5), 1)
            .with_service(ServiceDecl::new("doc", PartitionSet::parse("1").unwrap()));
        assert!(d.apply_join(n5, Provenance::Direct, 8).changed());
        assert!(!still(&d));
        assert_eq!(*d.providers("doc", Some(1)), [NodeId(3), NodeId(5)]);
    }

    #[test]
    fn results_sorted_by_node() {
        let d = directory();
        let m = d.lookup_service(".*", "").unwrap();
        let nodes: Vec<u32> = m.iter().map(|m| m.node.0).collect();
        let mut sorted = nodes.clone();
        sorted.sort();
        assert_eq!(nodes, sorted);
    }
}
