//! Hot swap: replace one edited operator's page while the rest of the app
//! (and every other tenant) keeps its pages and routes.
//!
//! This is the serving-side payoff of the paper's separate compilation:
//! because each operator is its own artifact behind the abstract shell, an
//! edit recompiles one page (through the [`BuildCache`]), reloads one page,
//! and re-sends only the configuration packets whose routes actually
//! changed or touch the reloaded page. The swap is charged its measured
//! downtime — artifact transfer plus link cycles — and the report carries
//! the full-app reload bill alongside for comparison.

use std::collections::HashSet;

use dfg::Graph;
use fabric::PageId;
use pld::vtime::overlay_seconds;
use pld::{
    bft_distance, page_load_ops, replay_loads, BuildCache, CompileOptions, CompiledApp, LinkOp,
};

use crate::allocator::AllocError;
use crate::device_state::PageBinding;
use crate::{remap_links, FleetAppId, Runtime, RuntimeError};

/// What one hot swap did and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapReport {
    /// Operators whose artifacts were replaced.
    pub recompiled: Vec<String>,
    /// Pages reloaded on the fabric.
    pub swapped_pages: Vec<PageId>,
    /// Seconds spent transferring the replacement artifacts.
    pub artifact_seconds: f64,
    /// Network cycles spent re-sending configuration packets.
    pub link_cycles: u64,
    /// Configuration packets re-sent.
    pub link_packets: usize,
    /// Total page downtime charged for this swap.
    pub downtime_seconds: f64,
    /// What tearing the whole app down and re-admitting it would have
    /// cost — every artifact reloaded, every route re-sent.
    pub full_reload_seconds: f64,
    /// Compiler virtual time of the incremental rebuild (spent offline,
    /// not as downtime).
    pub compile_vtime_seconds: f64,
    /// Build-graph stages served from the artifact store during the
    /// rebuild.
    pub stage_hits: u64,
    /// Build-graph stages that actually executed during the rebuild.
    pub stage_executions: u64,
}

impl Runtime {
    /// Hot-swaps a resident app to an edited version of its graph.
    ///
    /// The new graph must keep the same operator set (same names, same
    /// order); it may change kernel bodies, targets, and — implicitly —
    /// page assignments. The edit is recompiled through `cache`, so
    /// unchanged operators cost nothing; only pages whose artifact hash or
    /// home assignment changed are reloaded, and only routes that changed
    /// or touch a reloaded page are re-sent.
    ///
    /// # Errors
    ///
    /// See [`RuntimeError`]. On error the resident app is left unchanged.
    pub fn hot_swap(
        &mut self,
        id: FleetAppId,
        new_graph: &Graph,
        cache: &mut BuildCache,
        options: &CompileOptions,
    ) -> Result<SwapReport, RuntimeError> {
        if !self.is_resident(id) {
            return Err(RuntimeError::NotResident(id));
        }
        let new_app = cache.compile(new_graph, options)?;
        let (stage_hits, stage_executions) = cache
            .last_report()
            .map_or((0, 0), |r| (r.total_hits(), r.total_executions()));
        self.swap_to_app(id, new_app, stage_hits, stage_executions)
    }

    /// The swap itself: diff the freshly compiled app against the resident
    /// one, reload only the dirty pages, re-send only the affected routes.
    fn swap_to_app(
        &mut self,
        id: FleetAppId,
        new_app: CompiledApp,
        stage_hits: u64,
        stage_executions: u64,
    ) -> Result<SwapReport, RuntimeError> {
        if new_app.floorplan != self.device().floorplan {
            return Err(RuntimeError::FloorplanMismatch);
        }
        let resident = self
            .resident_ref(id)
            .ok_or(RuntimeError::ResidencyLost(id))?;
        let old_app = &resident.app;
        if new_app.operators.len() != old_app.operators.len()
            || new_app
                .operators
                .iter()
                .zip(&old_app.operators)
                .any(|(n, o)| n.name != o.name)
        {
            return Err(RuntimeError::OperatorSetChanged);
        }

        // Dirty = artifact content changed, or the compiler re-homed the
        // operator (a softcore image is packed per page, so a re-home is a
        // content change too).
        let mut dirty = Vec::new();
        for (i, (new_op, old_op)) in new_app.operators.iter().zip(&old_app.operators).enumerate() {
            let new_idx = new_op.artifact.ok_or_else(|| {
                RuntimeError::Alloc(AllocError::NotPaged {
                    app: new_app.graph.name.clone(),
                })
            })?;
            let old_idx = old_op.artifact.ok_or_else(|| {
                RuntimeError::Alloc(AllocError::NotPaged {
                    app: old_app.graph.name.clone(),
                })
            })?;
            if new_app.artifacts[new_idx].hash != old_app.artifacts[old_idx].hash
                || new_op.page != old_op.page
            {
                dirty.push(i);
            }
        }
        let compile_vtime_seconds = new_app.vtime_parallel.total();

        if dirty.is_empty() {
            // Nothing to reload, nothing to re-link; not even a swap.
            return Ok(SwapReport {
                recompiled: Vec::new(),
                swapped_pages: Vec::new(),
                artifact_seconds: 0.0,
                link_cycles: 0,
                link_packets: 0,
                downtime_seconds: 0.0,
                full_reload_seconds: 0.0,
                compile_vtime_seconds,
                stage_hits,
                stage_executions,
            });
        }

        // Re-place the dirty operators: keep the page the operator already
        // occupies when its type still fits the new home; otherwise move it
        // to a free page of the new type (pages this very swap frees count
        // as free).
        let mut placement = resident.placement.clone();
        for (i, p) in placement.iter_mut().enumerate() {
            p.home = new_app.operators[i].page.expect("checked paged above");
        }
        let floorplan = self.device().floorplan.clone();
        let mut free = self.device().free_map();
        let mut moves: Vec<usize> = Vec::new();
        for &i in &dirty {
            if new_app.operators[i].soft.is_some() {
                continue; // softcore images reload in place on any page
            }
            let need = floorplan.page_type_of(placement[i].home).unwrap_or(0);
            let have = floorplan.page_type_of(placement[i].actual).unwrap_or(0);
            if need != have {
                free[placement[i].actual.0 as usize] = true;
                moves.push(i);
            }
        }
        for &i in &moves {
            let need = floorplan.page_type_of(placement[i].home).unwrap_or(0);
            let neighbours: Vec<u32> = new_app
                .graph
                .edges
                .iter()
                .filter_map(|e| {
                    if e.from.0 .0 == i {
                        Some(placement[e.to.0 .0].actual.0)
                    } else if e.to.0 .0 == i {
                        Some(placement[e.from.0 .0].actual.0)
                    } else {
                        None
                    }
                })
                .collect();
            let chosen = floorplan
                .pages_of_type(need)
                .filter(|p| free[p.id.0 as usize])
                .map(|p| p.id)
                .min_by_key(|&p| {
                    let cost: u32 = neighbours.iter().map(|&q| bft_distance(p.0, q)).sum();
                    (cost, p.0)
                })
                .ok_or(RuntimeError::Alloc(AllocError::NoCapacity {
                    op: new_app.operators[i].name.clone(),
                    page_type: need,
                }))?;
            free[chosen.0 as usize] = false;
            placement[i].actual = chosen;
        }

        let swapped_pages: Vec<PageId> = dirty.iter().map(|&i| placement[i].actual).collect();

        // Artifact transfer: replay exactly the dirty pages' LoadOps from
        // the new build.
        let dirty_homes: Vec<PageId> = dirty.iter().map(|&i| placement[i].home).collect();
        let ops = page_load_ops(&new_app, &dirty_homes);
        let load = replay_loads(&new_app, &ops);
        let artifact_seconds =
            load.overlay_seconds + load.bitstream_seconds + load.softcore_seconds;

        // Re-link: tear down routes that no longer exist, re-send routes
        // that changed or touch a reloaded page; everything else keeps its
        // destination registers untouched.
        let dma_in_base = resident.dma_in_base;
        let dma_out_base = resident.dma_out_base;
        let old_links = resident.links.clone();
        let admit_link_cycles = resident.admit_link_cycles;
        let old_actuals: Vec<(usize, PageId)> = resident
            .placement
            .iter()
            .map(|p| (p.op, p.actual))
            .collect();

        let new_links = remap_links(
            &new_app,
            &placement,
            self.device(),
            dma_in_base,
            dma_out_base,
        );
        let swapped_leaves: HashSet<u16> = swapped_pages.iter().map(|p| p.0 as u16).collect();
        let stale: Vec<LinkOp> = old_links
            .iter()
            .filter(|l| !new_links.contains(l))
            .copied()
            .collect();
        self.device_mut().unlink(&stale);
        let resend: Vec<LinkOp> = new_links
            .iter()
            .filter(|l| {
                !self.device().route_programmed(l)
                    || swapped_leaves.contains(&l.src_leaf)
                    || swapped_leaves.contains(&l.dest.leaf)
            })
            .copied()
            .collect();
        let link_cycles = self.device_mut().link(&resend);
        let link_packets = resend.len();
        let downtime_seconds = artifact_seconds + overlay_seconds(link_cycles);

        // A full reload would transfer every non-overlay artifact and
        // re-send the whole link table (the cycles measured at admission).
        let full_artifacts: f64 = new_app
            .operators
            .iter()
            .filter_map(|o| o.artifact)
            .map(|idx| new_app.artifacts[idx].load_seconds())
            .sum();
        let full_reload_seconds = full_artifacts + overlay_seconds(admit_link_cycles);

        // Commit: move page bindings, install the new build.
        for &i in &moves {
            let old = old_actuals
                .iter()
                .find(|(op, _)| *op == i)
                .expect("placed")
                .1;
            self.device_mut().release(old);
            self.device_mut().bind(
                placement[i].actual,
                PageBinding {
                    app: id,
                    operator: i,
                },
            );
        }
        let tick = self.bump_tick();
        let recompiled: Vec<String> = dirty
            .iter()
            .map(|&i| new_app.operators[i].name.clone())
            .collect();
        {
            // The residency check at entry makes this unreachable in a
            // well-sequenced swap; a typed error still beats unwinding
            // with the device bindings already moved.
            let resident = self
                .resident_mut(id)
                .ok_or(RuntimeError::ResidencyLost(id))?;
            // Every operator whose kernel the edit changed gets new
            // interpreter code, whether or not its page reloads.
            resident.code.recompile(&resident.app.graph, &new_app.graph);
            resident.app = new_app;
            resident.placement = placement;
            resident.links = new_links;
            resident.last_used = tick;
        }
        let stats = self.stats_mut();
        stats.swaps += 1;
        stats.cumulative_downtime_seconds += downtime_seconds;

        Ok(SwapReport {
            recompiled,
            swapped_pages,
            artifact_seconds,
            link_cycles,
            link_packets,
            downtime_seconds,
            full_reload_seconds,
            compile_vtime_seconds,
            stage_hits,
            stage_executions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceId, Fleet, FleetError, TenantId};
    use dfg::{GraphBuilder, Target};
    use fabric::Floorplan;
    use kir::{Expr, KernelBuilder, Scalar, Stmt};
    use pld::OptLevel;

    fn stage(name: &str, addend: i64) -> kir::Kernel {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_pipelined(
                "i",
                0..32,
                [
                    Stmt::read("x", "in"),
                    Stmt::write("out", Expr::var("x").add(Expr::cint(addend))),
                ],
            )])
            .build()
            .unwrap()
    }

    fn pipeline(addends: [i64; 3]) -> Graph {
        let mut b = GraphBuilder::new("pipe");
        let a = b.add("a", stage("a", addends[0]), Target::riscv_auto());
        let c = b.add("c", stage("c", addends[1]), Target::riscv_auto());
        let d = b.add("d", stage("d", addends[2]), Target::riscv_auto());
        b.ext_input("Input_1", a, "in");
        b.connect("l1", a, "out", c, "in");
        b.connect("l2", c, "out", d, "in");
        b.ext_output("Output_1", d, "out");
        b.build().unwrap()
    }

    /// A fleet of one card serving `app`.
    fn serve(app: CompiledApp) -> (Fleet, FleetAppId) {
        let mut fleet = Fleet::new(1, &Floorplan::u50());
        let id = fleet.submit(TenantId(0), "pipe", app).unwrap();
        fleet.pump();
        assert!(fleet.is_resident(id));
        (fleet, id)
    }

    fn card(fleet: &mut Fleet) -> &mut Runtime {
        fleet.runtime_mut(DeviceId(0)).unwrap()
    }

    #[test]
    fn one_edit_swaps_one_page_and_beats_full_reload() {
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O0);
        let g1 = pipeline([1, 2, 3]);
        let (mut fleet, id) = serve(cache.compile(&g1, &opts).unwrap());
        let rt = card(&mut fleet);
        let writes_before = rt.device().config_writes();
        let links_before = rt.resident_ref(id).unwrap().links.clone();

        let g2 = pipeline([1, 99, 3]);
        let report = rt.hot_swap(id, &g2, &mut cache, &opts).unwrap();
        assert_eq!(report.recompiled, vec!["c".to_string()]);
        assert_eq!(report.swapped_pages.len(), 1);
        assert!(report.artifact_seconds > 0.0);
        assert!(report.downtime_seconds > 0.0);
        assert!(
            report.downtime_seconds < report.full_reload_seconds,
            "swap {} vs full {}",
            report.downtime_seconds,
            report.full_reload_seconds
        );
        // Only the affected routes were re-sent.
        assert!(report.link_packets < links_before.len());
        assert_eq!(
            rt.device().config_writes() - writes_before,
            report.link_packets as u64
        );
        // Every route of the swapped app is live afterwards.
        for l in &rt.resident_ref(id).unwrap().links {
            assert!(rt.device().route_programmed(l), "route {l:?} lost");
        }
        assert_eq!(rt.stats().swaps, 1);
        // Stage accounting: the two unchanged operators hit both their
        // stages; the edited one re-ran compile + pack, and the app-wide
        // driver stage re-ran because an artifact hash changed.
        assert_eq!((report.stage_hits, report.stage_executions), (4, 3));
    }

    #[test]
    fn hot_swap_runs_off_the_shared_artifact_store() {
        // The cache's artifact store serves every swap: swapping back to
        // the original graph reuses every stage product the first build
        // left there, the app-wide driver stage included.
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O0);
        let (mut fleet, id) = serve(cache.compile(&pipeline([1, 2, 3]), &opts).unwrap());
        let rt = card(&mut fleet);

        let report = rt
            .hot_swap(id, &pipeline([1, 99, 3]), &mut cache, &opts)
            .unwrap();
        assert_eq!(report.recompiled, vec!["c".to_string()]);
        assert_eq!((report.stage_hits, report.stage_executions), (4, 3));

        let report = rt
            .hot_swap(id, &pipeline([1, 2, 3]), &mut cache, &opts)
            .unwrap();
        assert_eq!((report.stage_hits, report.stage_executions), (7, 0));
        assert_eq!(report.recompiled, vec!["c".to_string()]);
        assert_eq!(rt.stats().swaps, 2);
    }

    #[test]
    fn identical_edit_is_a_free_swap() {
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O0);
        let g = pipeline([4, 5, 6]);
        let (mut fleet, id) = serve(cache.compile(&g, &opts).unwrap());
        let rt = card(&mut fleet);
        let report = rt.hot_swap(id, &g, &mut cache, &opts).unwrap();
        assert!(report.recompiled.is_empty());
        assert_eq!(report.downtime_seconds, 0.0);
        assert_eq!(rt.stats().swaps, 0);
        // A no-op recompile executes zero stages: 2 per operator + the
        // driver all hit.
        assert_eq!((report.stage_hits, report.stage_executions), (7, 0));
    }

    #[test]
    fn operator_set_change_is_refused() {
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O0);
        let g = pipeline([1, 2, 3]);
        let (mut fleet, id) = serve(cache.compile(&g, &opts).unwrap());
        let rt = card(&mut fleet);

        let mut b = GraphBuilder::new("pipe");
        let a = b.add("a", stage("a", 1), Target::riscv_auto());
        b.ext_input("Input_1", a, "in");
        b.ext_output("Output_1", a, "out");
        let smaller = b.build().unwrap();
        assert!(matches!(
            rt.hot_swap(id, &smaller, &mut cache, &opts),
            Err(RuntimeError::OperatorSetChanged)
        ));
        // The resident app is untouched.
        assert_eq!(rt.resident_ref(id).unwrap().placement.len(), 3);
    }

    #[test]
    fn mis_sequenced_evict_and_swap_report_typed_errors() {
        let mut cache = BuildCache::new();
        let opts = CompileOptions::new(OptLevel::O0);
        let (mut fleet, id) = serve(cache.compile(&pipeline([1, 2, 3]), &opts).unwrap());

        // Well-sequenced retirement succeeds; the double retirement and a
        // swap on the gone app are typed errors, not panics.
        fleet.retire(id).unwrap();
        assert!(matches!(fleet.retire(id), Err(FleetError::NotResident(_))));
        let rt = card(&mut fleet);
        assert!(matches!(
            rt.hot_swap(id, &pipeline([1, 9, 3]), &mut cache, &opts),
            Err(RuntimeError::NotResident(_))
        ));

        // Driving the swap layer directly after the removal — the
        // mis-sequenced ordering that used to panic on
        // `expect("still resident")` — surfaces the invariant error.
        let new_app = cache.compile(&pipeline([1, 9, 3]), &opts).unwrap();
        assert!(matches!(
            rt.swap_to_app(id, new_app, 0, 0),
            Err(RuntimeError::ResidencyLost(_))
        ));
        assert!(matches!(rt.remove(id), Err(RuntimeError::NotResident(_))));
    }
}
