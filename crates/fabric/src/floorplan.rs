//! The page floorplan: the paper's Fig. 8 / Tab. 1 decomposition.

use netlist::Resources;
use std::collections::BTreeMap;
use std::fmt;

use crate::device::{Device, Rect};

/// Index of a page within a [`Floorplan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page{:02}", self.0)
    }
}

/// One partial-reconfiguration page (an L2 DFX region, Sec. 4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Page id, dense from zero.
    pub id: PageId,
    /// Region of the device grid this page owns.
    pub rect: Rect,
    /// Resources inside the region.
    pub resources: Resources,
    /// Page type index (1-based, as in Tab. 1), grouping identical mixes.
    pub page_type: u32,
    /// SLR the page lives in.
    pub slr: u32,
}

/// Floorplan validation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FloorplanError {
    /// Two regions overlap.
    #[allow(missing_docs)]
    Overlap { a: String, b: String },
    /// A region extends past the device grid.
    #[allow(missing_docs)]
    OutOfBounds { name: String },
    /// A page intersects a reserved (shell or NoC) column.
    #[allow(missing_docs)]
    OnReservedColumn { name: String },
    /// A page crosses an SLR boundary, which DFX regions must not.
    #[allow(missing_docs)]
    CrossesSlr { name: String },
}

impl fmt::Display for FloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloorplanError::Overlap { a, b } => write!(f, "regions `{a}` and `{b}` overlap"),
            FloorplanError::OutOfBounds { name } => {
                write!(f, "region `{name}` extends past the device grid")
            }
            FloorplanError::OnReservedColumn { name } => {
                write!(f, "page `{name}` intersects a reserved column")
            }
            FloorplanError::CrossesSlr { name } => {
                write!(f, "page `{name}` crosses an SLR boundary")
            }
        }
    }
}

impl std::error::Error for FloorplanError {}

/// A complete decomposition of a device into pages plus fixed infrastructure
/// (DMA engine, HBM drivers, debug & profile logic, binary-configuration
/// module — the support blocks of the paper's Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// The underlying device.
    pub device: Device,
    /// User pages (L2 DFX regions).
    pub pages: Vec<Page>,
    /// Named infrastructure regions (part of the fixed overlay).
    pub infra: Vec<(String, Rect)>,
}

impl Floorplan {
    /// The default 22-page Alveo U50 floorplan mirroring the paper's
    /// evaluation setup (Sec. 7.1, Fig. 8): four page columns per SLR
    /// stack, seven pages each of three types plus one odd page, and one
    /// infrastructure slot per column for the DMA engine, debug & profile,
    /// interrupt & reset, and configuration/HBM blocks.
    pub fn u50() -> Floorplan {
        let device = Device::xcu50();
        // Page columns: (x0, width). Columns 24–25 are the NoC strip.
        let pcs = [(2u32, 11u32), (13, 11), (26, 10), (36, 14)];
        let band_h = 10u32;

        let mut rects: Vec<Rect> = Vec::new();
        let mut infra: Vec<(String, Rect)> = Vec::new();
        // PC0–PC2 contribute bands 0..7 as pages except their last band;
        // PC3 contributes band 0 only, the rest is infrastructure.
        for band in 0..7 {
            rects.push(Rect::new(pcs[0].0, band * band_h, pcs[0].1, band_h));
        }
        infra.push((
            "dma_engine".into(),
            Rect::new(pcs[0].0, 70, pcs[0].1, band_h),
        ));
        for band in 0..7 {
            rects.push(Rect::new(pcs[1].0, band * band_h, pcs[1].1, band_h));
        }
        infra.push((
            "debug_profile".into(),
            Rect::new(pcs[1].0, 70, pcs[1].1, band_h),
        ));
        for band in 0..7 {
            rects.push(Rect::new(pcs[2].0, band * band_h, pcs[2].1, band_h));
        }
        infra.push((
            "interrupt_reset".into(),
            Rect::new(pcs[2].0, 70, pcs[2].1, band_h),
        ));
        rects.push(Rect::new(pcs[3].0, 0, pcs[3].1, band_h));
        let pc3_infra = [
            "binary_config",
            "hbm_driver_0",
            "hbm_driver_1",
            "reserved_0",
            "reserved_1",
            "reserved_2",
            "reserved_3",
        ];
        for (i, name) in pc3_infra.iter().enumerate() {
            infra.push((
                name.to_string(),
                Rect::new(pcs[3].0, (i as u32 + 1) * band_h, pcs[3].1, band_h),
            ));
        }

        let fp = Floorplan::from_rects(device, rects, infra);
        fp.validate().expect("built-in U50 floorplan is valid");
        fp
    }

    /// An alternate overlay with half-height pages: 44 smaller L2 regions.
    ///
    /// The paper's Sec. 9 proposes pre-computing "multiple infrastructure
    /// overlays with different resources... as alternate compile-time and
    /// quality targets": smaller pages compile faster but pay more
    /// leaf-interface overhead (Eq. 1) and fit fewer operators. The
    /// `ablation` harness compares this overlay against [`Floorplan::u50`].
    pub fn u50_fine() -> Floorplan {
        let device = Device::xcu50();
        let pcs = [(2u32, 11u32), (13, 11), (26, 10), (36, 14)];
        let band_h = 5u32;
        let mut rects = Vec::new();
        let mut infra: Vec<(String, Rect)> = Vec::new();
        // PC0-PC2: 14 pages each (last two bands are infrastructure);
        // PC3: 2 pages plus infrastructure, totalling 44 pages.
        for (pi, (x0, w)) in pcs.iter().enumerate().take(3) {
            for band in 0..14 {
                rects.push(Rect::new(*x0, band * band_h, *w, band_h));
            }
            infra.push((format!("infra_{pi}a"), Rect::new(*x0, 70, *w, band_h)));
            infra.push((format!("infra_{pi}b"), Rect::new(*x0, 75, *w, band_h)));
        }
        let (x0, w) = pcs[3];
        rects.push(Rect::new(x0, 0, w, band_h));
        rects.push(Rect::new(x0, 5, w, band_h));
        for band in 2..16 {
            infra.push((
                format!("reserved_{band}"),
                Rect::new(x0, band * band_h, w, band_h),
            ));
        }
        let fp = Floorplan::from_rects(device, rects, infra);
        fp.validate().expect("built-in fine U50 floorplan is valid");
        fp
    }

    /// Builds a floorplan from page rectangles, computing resources and
    /// assigning type indices (groups of identical resource mixes, ordered
    /// by population then LUT count, as Tab. 1 presents them).
    pub fn from_rects(device: Device, rects: Vec<Rect>, infra: Vec<(String, Rect)>) -> Floorplan {
        // Out-of-bounds rects get zero resources here; `validate` reports them.
        let resources: Vec<Resources> = rects
            .iter()
            .map(|r| {
                if r.x0 + r.w <= device.width && r.y0 + r.h <= device.height {
                    device.region_resources(r)
                } else {
                    Resources::default()
                }
            })
            .collect();
        // Group identical resource vectors.
        let mut groups: BTreeMap<(u64, u64, u64, u64), Vec<usize>> = BTreeMap::new();
        for (i, r) in resources.iter().enumerate() {
            groups
                .entry((r.luts, r.ffs, r.bram18, r.dsp))
                .or_default()
                .push(i);
        }
        type GroupRef<'a> = (&'a (u64, u64, u64, u64), &'a Vec<usize>);
        let mut ordered: Vec<GroupRef<'_>> = groups.iter().collect();
        ordered.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(b.0 .0.cmp(&a.0 .0)));
        let mut type_of = vec![0u32; rects.len()];
        for (t, (_, members)) in ordered.iter().enumerate() {
            for &m in *members {
                type_of[m] = t as u32 + 1;
            }
        }

        let pages = rects
            .into_iter()
            .enumerate()
            .map(|(i, rect)| Page {
                id: PageId(i as u32),
                rect,
                resources: resources[i],
                page_type: type_of[i],
                slr: device.slr_of_row(rect.y0),
            })
            .collect();
        Floorplan {
            device,
            pages,
            infra,
        }
    }

    /// Looks up a page.
    pub fn page(&self, id: PageId) -> Option<&Page> {
        self.pages.get(id.0 as usize)
    }

    /// Number of distinct page types.
    pub fn type_count(&self) -> u32 {
        self.pages.iter().map(|p| p.page_type).max().unwrap_or(0)
    }

    /// Pages of a given type (1-based index as in Tab. 1).
    pub fn pages_of_type(&self, page_type: u32) -> impl Iterator<Item = &Page> {
        self.pages.iter().filter(move |p| p.page_type == page_type)
    }

    /// The representative resource mix of a page type.
    pub fn type_resources(&self, page_type: u32) -> Option<Resources> {
        self.pages_of_type(page_type).next().map(|p| p.resources)
    }

    /// The type index of a page (1-based, as in Tab. 1).
    pub fn page_type_of(&self, id: PageId) -> Option<u32> {
        self.page(id).map(|p| p.page_type)
    }

    /// Number of pages of the given type — the ceiling on how many
    /// same-shaped operators a multi-tenant scheduler can host at once.
    pub fn type_population(&self, page_type: u32) -> usize {
        self.pages_of_type(page_type).count()
    }

    /// BRAM bits of the *smallest* page — the per-operator array budget a
    /// graph optimizer can count on when operators may land on any page.
    /// Each BRAM18 block holds 18 Kib.
    pub fn min_page_bram_bits(&self) -> u64 {
        self.pages
            .iter()
            .map(|p| p.resources.bram18 * 18 * 1024)
            .min()
            .unwrap_or(0)
    }

    /// Validates geometric invariants.
    ///
    /// # Errors
    ///
    /// See [`FloorplanError`].
    pub fn validate(&self) -> Result<(), FloorplanError> {
        let named: Vec<(String, Rect, bool)> = self
            .pages
            .iter()
            .map(|p| (p.id.to_string(), p.rect, true))
            .chain(self.infra.iter().map(|(n, r)| (n.clone(), *r, false)))
            .collect();
        for (name, rect, is_page) in &named {
            if rect.x0 + rect.w > self.device.width || rect.y0 + rect.h > self.device.height {
                return Err(FloorplanError::OutOfBounds { name: name.clone() });
            }
            if *is_page {
                for x in rect.x0..rect.x0 + rect.w {
                    if self.device.is_reserved_col(x) {
                        return Err(FloorplanError::OnReservedColumn { name: name.clone() });
                    }
                }
                if self.device.crosses_slr(rect) {
                    return Err(FloorplanError::CrossesSlr { name: name.clone() });
                }
            }
        }
        for i in 0..named.len() {
            for j in i + 1..named.len() {
                if named[i].1.overlaps(&named[j].1) {
                    return Err(FloorplanError::Overlap {
                        a: named[i].0.clone(),
                        b: named[j].0.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Renders an ASCII floorplan in the spirit of the paper's Fig. 8.
    pub fn render(&self) -> String {
        let w = self.device.width as usize;
        let h = self.device.height as usize;
        let mut grid = vec![vec!['.'; w]; h];
        for row in grid.iter_mut().take(h) {
            for x in &self.device.shell_cols {
                row[*x as usize] = 'S';
            }
            for x in &self.device.noc_cols {
                row[*x as usize] = 'N';
            }
        }
        for p in &self.pages {
            let c = char::from_digit(p.page_type, 10).unwrap_or('?');
            for y in p.rect.y0..p.rect.y0 + p.rect.h {
                for x in p.rect.x0..p.rect.x0 + p.rect.w {
                    grid[y as usize][x as usize] = c;
                }
            }
        }
        for (name, r) in &self.infra {
            let c = name.chars().next().unwrap_or('i').to_ascii_uppercase();
            for y in r.y0..r.y0 + r.h {
                for x in r.x0..r.x0 + r.w {
                    grid[y as usize][x as usize] = c;
                }
            }
        }
        let mut out = String::new();
        // Row 0 at the bottom, like a die photo.
        for (y, row) in grid.iter().enumerate().rev() {
            if y as u32 == self.device.slr_height {
                out.push_str(&"-".repeat(w));
                out.push_str("  SLR boundary\n");
            }
            out.extend(row.iter());
            out.push('\n');
        }
        out.push_str("S=static shell  N=linking network  1-9=page type  letters=infrastructure\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u50_has_22_pages_in_4_types() {
        let fp = Floorplan::u50();
        assert_eq!(fp.pages.len(), 22);
        assert_eq!(fp.type_count(), 4);
        // Tab. 1's Number row: 7 / 7 / 7 / 1.
        let mut counts: Vec<usize> = (1..=4).map(|t| fp.pages_of_type(t).count()).collect();
        counts.sort_unstable();
        assert_eq!(counts, vec![1, 7, 7, 7]);
    }

    #[test]
    fn u50_page_resources_are_in_paper_class() {
        // Tab. 1 pages: 17.5–21.2k LUTs, 48–120 BRAM18, 120–168 DSP.
        let fp = Floorplan::u50();
        for p in &fp.pages {
            assert!(
                p.resources.luts >= 15_000 && p.resources.luts <= 30_000,
                "{:?}",
                p
            );
            assert!(
                p.resources.bram18 >= 48 && p.resources.bram18 <= 144,
                "{:?}",
                p
            );
            assert!(p.resources.dsp >= 100 && p.resources.dsp <= 200, "{:?}", p);
        }
    }

    #[test]
    fn u50_validates() {
        assert!(Floorplan::u50().validate().is_ok());
    }

    #[test]
    fn type_queries_agree_with_page_records() {
        let fp = Floorplan::u50();
        for p in &fp.pages {
            assert_eq!(fp.page_type_of(p.id), Some(p.page_type));
        }
        assert_eq!(fp.page_type_of(PageId(99)), None);
        let total: usize = (1..=fp.type_count()).map(|t| fp.type_population(t)).sum();
        assert_eq!(total, fp.pages.len());
    }

    #[test]
    fn pages_do_not_cross_slr() {
        let fp = Floorplan::u50();
        for p in &fp.pages {
            assert!(!fp.device.crosses_slr(&p.rect));
            assert_eq!(p.slr, fp.device.slr_of_row(p.rect.y0));
        }
    }

    #[test]
    fn overlap_detected() {
        let device = Device::xcu50();
        let fp = Floorplan::from_rects(
            device,
            vec![Rect::new(2, 0, 5, 10), Rect::new(4, 5, 5, 10)],
            vec![],
        );
        assert!(matches!(fp.validate(), Err(FloorplanError::Overlap { .. })));
    }

    #[test]
    fn reserved_column_detected() {
        let device = Device::xcu50();
        let fp = Floorplan::from_rects(device, vec![Rect::new(0, 0, 3, 10)], vec![]);
        assert!(matches!(
            fp.validate(),
            Err(FloorplanError::OnReservedColumn { .. })
        ));
    }

    #[test]
    fn out_of_bounds_detected() {
        let device = Device::xcu50();
        let fp = Floorplan::from_rects(device, vec![Rect::new(45, 0, 10, 10)], vec![]);
        assert!(matches!(
            fp.validate(),
            Err(FloorplanError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn render_mentions_all_regions() {
        let s = Floorplan::u50().render();
        assert!(s.contains('S'));
        assert!(s.contains('N'));
        assert!(s.contains('1'));
        assert!(s.contains("SLR boundary"));
    }

    #[test]
    fn fine_overlay_has_more_smaller_pages() {
        let coarse = Floorplan::u50();
        let fine = Floorplan::u50_fine();
        assert_eq!(fine.pages.len(), 44);
        assert!(fine.validate().is_ok());
        let coarse_luts = coarse.pages[0].resources.luts;
        let fine_luts = fine.pages[0].resources.luts;
        assert!(
            fine_luts * 2 <= coarse_luts + 1,
            "{fine_luts} vs {coarse_luts}"
        );
    }

    #[test]
    fn type_resources_lookup() {
        let fp = Floorplan::u50();
        for t in 1..=4 {
            let r = fp.type_resources(t).unwrap();
            assert!(r.luts > 0);
        }
        assert!(fp.type_resources(9).is_none());
    }
}
