//! `tamp-exp topo <file>` — inspect a fabric description: distances,
//! and the membership tree the protocol would form on it.

use tamp_chaos::{build_cluster, Protocol};
use tamp_membership::MembershipConfig;
use tamp_netsim::{EngineConfig, SECS};
use tamp_topology::parse_topology;
use tamp_wire::NodeId;

pub fn run(path: &str, seed: u64) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let parsed = parse_topology(&text).map_err(|e| e.to_string())?;
    let topo = parsed.topology;

    println!(
        "fabric {path}: {} hosts, {} segments, {} named routers, max TTL {}",
        topo.num_hosts(),
        topo.num_segments(),
        parsed.routers.len(),
        topo.max_ttl()
    );

    // Segment-to-segment router-hop matrix.
    let seg_names: Vec<&String> = parsed.segments.keys().collect();
    let mut t = crate::report::Table::new(
        "router hops between segments",
        &std::iter::once("from\\to")
            .chain(seg_names.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for (name_a, &seg_a) in &parsed.segments {
        let mut row = vec![name_a.clone()];
        for &seg_b in parsed.segments.values() {
            row.push(topo.segment_hops(seg_a, seg_b).to_string());
        }
        t.row(row);
    }
    t.print();

    // Simulate the membership protocol on it and describe the tree.
    println!("\nsimulating the hierarchical membership protocol for 60 s ...");
    let cfg = MembershipConfig {
        max_ttl: topo.max_ttl().max(1),
        ..Default::default()
    };
    let host_names: std::collections::HashMap<u32, &String> =
        parsed.hosts.iter().map(|(name, h)| (h.0, name)).collect();
    let engine_cfg = EngineConfig::default();
    let mut c = build_cluster(topo, engine_cfg, seed, Protocol::Tamp, &cfg, |_| Vec::new());
    c.engine.run_until(60 * SECS);

    let n = c.clients.len();
    let full = c.clients.iter().filter(|c| c.member_count() == n).count();
    println!("complete views: {full}/{n}");
    let probes: Vec<_> = c.probes.iter().flatten().collect();
    let max_levels = probes
        .iter()
        .map(|p| p.lock().active_levels.len())
        .max()
        .unwrap_or(0);
    for level in 0..max_levels {
        let members: Vec<String> = probes
            .iter()
            .enumerate()
            .filter(|(_, p)| p.lock().active_levels.contains(&(level as u8)))
            .map(|(i, p)| {
                let name = host_names
                    .get(&(i as u32))
                    .map(|s| s.as_str())
                    .unwrap_or("?");
                let leader = p.lock().leaders.get(level).cloned().flatten();
                if leader == Some(NodeId(i as u32)) {
                    format!("[{name}*]")
                } else {
                    name.to_string()
                }
            })
            .collect();
        println!("level {level} (TTL {}): {}", level + 1, members.join(" "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn topo_tool_runs_on_sample() {
        let sample = "segment a\nsegment b\nrouter r\nlink a r\nlink b r\n\
                      host left1 a\nhost left2 a\nhost right1 b\nhost right2 b\n";
        let dir = std::env::temp_dir().join("tamp_topo_tool_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.topo");
        std::fs::write(&path, sample).unwrap();
        super::run(path.to_str().unwrap(), 5).unwrap();
    }

    #[test]
    fn topo_tool_reports_errors() {
        assert!(super::run("/nonexistent/file.topo", 1).is_err());
    }
}
