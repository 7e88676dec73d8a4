use crate::{BucketCoord, BucketRegion, DiskId, GridSpace, Result};

/// Physical placement of one bucket: which disk holds it and at which page
/// position on that disk.
///
/// Page numbers are assigned in row-major bucket order per disk, which is
/// how a bulk-loaded Cartesian product file would be laid out; the
/// simulator uses inter-page distance as a seek-distance proxy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BucketPage {
    /// Disk holding the bucket.
    pub disk: DiskId,
    /// Zero-based page position on that disk.
    pub page: u64,
}

/// A materialized bucket→(disk, page) directory for a grid, in the style of
/// the grid file's directory.
///
/// The directory is built once from an assignment function (a declustering
/// method) and thereafter answers placement lookups in O(1) and
/// disk-content queries in O(buckets-on-disk).
#[derive(Clone, Debug)]
pub struct GridDirectory {
    space: GridSpace,
    /// Placement per linear bucket id.
    pages: Vec<BucketPage>,
    /// Linear bucket ids per disk, in page order.
    per_disk: Vec<Vec<u64>>,
}

impl GridDirectory {
    /// Builds a directory by evaluating `assign` on every bucket of
    /// `space`, laying buckets out on their disks in row-major order.
    ///
    /// `num_disks` fixes the directory width; any assignment ≥ `num_disks`
    /// is a bug in the method and panics (methods guarantee
    /// `disk < num_disks` by construction and tests).
    ///
    /// # Panics
    /// Panics if `assign` returns a disk id outside `0..num_disks`, or if
    /// the grid has more buckets than fit in memory (`usize`).
    pub fn build(
        space: GridSpace,
        num_disks: u32,
        mut assign: impl FnMut(&BucketCoord) -> DiskId,
    ) -> Self {
        let total = usize::try_from(space.num_buckets())
            .expect("grid too large to materialize a directory");
        let mut pages = Vec::with_capacity(total);
        let mut per_disk: Vec<Vec<u64>> = vec![Vec::new(); num_disks as usize];
        for bucket in space.iter() {
            let disk = assign(&bucket);
            assert!(
                disk.0 < num_disks,
                "declustering method assigned {disk} but only {num_disks} disks exist"
            );
            let page = per_disk[disk.index()].len() as u64;
            let id = space.linearize_unchecked(bucket.as_slice());
            per_disk[disk.index()].push(id);
            pages.push(BucketPage { disk, page });
        }
        GridDirectory {
            space,
            pages,
            per_disk,
        }
    }

    /// Builds a directory directly from a disk-assignment table in
    /// linear (row-major) bucket order — the inverse of
    /// [`GridDirectory::disk_table`].
    ///
    /// This is the warm-start constructor: a persisted allocation image
    /// already holds the table, so rebuilding the directory needs no
    /// method evaluation and no per-bucket coordinate materialization.
    /// Two flat passes (count per disk, then scatter with pre-sized
    /// buffers) make it an order of magnitude cheaper than
    /// [`GridDirectory::build`] with a table-lookup closure, and it
    /// produces a bit-identical directory: page numbers are assigned in
    /// ascending linear order per disk either way.
    ///
    /// # Errors
    /// [`crate::GridError::DimensionMismatch`] if the table length does
    /// not match the grid's bucket count, or if any entry is ≥
    /// `num_disks`.
    pub fn from_table(space: GridSpace, num_disks: u32, table: &[u32]) -> Result<Self> {
        let total = usize::try_from(space.num_buckets())
            .expect("grid too large to materialize a directory");
        if table.len() != total {
            return Err(crate::GridError::DimensionMismatch {
                expected: total,
                got: table.len(),
            });
        }
        let mut loads = vec![0u64; num_disks as usize];
        for &d in table {
            if d >= num_disks {
                return Err(crate::GridError::DimensionMismatch {
                    expected: num_disks as usize,
                    got: d as usize,
                });
            }
            loads[d as usize] += 1;
        }
        let mut per_disk: Vec<Vec<u64>> = loads
            .iter()
            .map(|&n| Vec::with_capacity(n as usize))
            .collect();
        let mut pages = Vec::with_capacity(total);
        for (id, &d) in table.iter().enumerate() {
            let bucket_list = &mut per_disk[d as usize];
            pages.push(BucketPage {
                disk: DiskId(d),
                page: bucket_list.len() as u64,
            });
            bucket_list.push(id as u64);
        }
        Ok(GridDirectory {
            space,
            pages,
            per_disk,
        })
    }

    /// The grid this directory covers.
    pub fn space(&self) -> &GridSpace {
        &self.space
    }

    /// Number of disks.
    pub fn num_disks(&self) -> u32 {
        self.per_disk.len() as u32
    }

    /// Placement of a bucket.
    ///
    /// # Errors
    /// Bounds errors if the bucket lies outside the grid.
    pub fn lookup(&self, bucket: &BucketCoord) -> Result<BucketPage> {
        let id = self.space.linearize(bucket)?;
        Ok(self.pages[id as usize])
    }

    /// Placement by linear bucket id.
    ///
    /// # Errors
    /// [`crate::GridError::LinearOutOfBounds`] for an invalid id.
    pub fn lookup_linear(&self, id: u64) -> Result<BucketPage> {
        // Reuse delinearize purely for its bounds check.
        self.space.delinearize(id)?;
        Ok(self.pages[id as usize])
    }

    /// Linear bucket ids stored on `disk`, in page order.
    ///
    /// Returns an empty slice for a disk id out of range (such a disk holds
    /// nothing by definition).
    pub fn buckets_on_disk(&self, disk: DiskId) -> &[u64] {
        self.per_disk
            .get(disk.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of buckets per disk (the static load vector).
    pub fn load_vector(&self) -> Vec<u64> {
        self.per_disk.iter().map(|v| v.len() as u64).collect()
    }

    /// Visits `region`'s placements as runs of consecutive linear bucket
    /// ids: `f(start_id, placements)` where `placements[i]` belongs to
    /// bucket `start_id + i`. Runs come in ascending id order (see
    /// [`BucketRegion::for_each_run`]), so the buckets are visited in
    /// row-major order without materializing any coordinate.
    pub fn for_each_placement_run(
        &self,
        region: &BucketRegion,
        mut f: impl FnMut(u64, &[BucketPage]),
    ) {
        region.for_each_run(&self.space, |start, len| {
            f(start, &self.pages[start as usize..(start + len) as usize]);
        });
    }

    /// Fills `plan` with the pages `region` touches, grouped per disk in a
    /// single flat arena. Steady-state this allocates nothing: the arena's
    /// buffers are reused across calls.
    ///
    /// Two passes over the region's placement runs: one to size the
    /// per-disk groups, one to scatter page numbers into place. Because
    /// runs visit buckets in ascending linear order and
    /// [`GridDirectory::build`] assigns pages in that same order, each
    /// disk's group comes out sorted without a sort pass.
    pub fn io_plan_into(&self, region: &BucketRegion, plan: &mut IoPlan) {
        let m = self.per_disk.len();
        let IoPlan {
            pages,
            offsets,
            cursors,
        } = plan;
        offsets.clear();
        offsets.resize(m + 1, 0);
        cursors.clear();
        cursors.resize(m, 0);
        self.for_each_placement_run(region, |_, run| {
            for bp in run {
                cursors[bp.disk.index()] += 1;
            }
        });
        let mut total = 0usize;
        for d in 0..m {
            offsets[d] = total;
            total += cursors[d];
            cursors[d] = offsets[d];
        }
        offsets[m] = total;
        pages.clear();
        pages.resize(total, 0);
        self.for_each_placement_run(region, |_, run| {
            for bp in run {
                let cursor = &mut cursors[bp.disk.index()];
                pages[*cursor] = bp.page;
                *cursor += 1;
            }
        });
        debug_assert!((0..m).all(|d| plan.disk_pages(d).windows(2).all(|w| w[0] < w[1])));
    }

    /// Disk assignment per bucket, in linear (row-major) bucket order.
    ///
    /// This is the raw declustering table behind the directory; consumers
    /// that only need per-disk *counts* (not page identities) can feed it
    /// to a prefix-sum kernel instead of walking regions.
    pub fn disk_table(&self) -> Vec<u32> {
        self.pages.iter().map(|bp| bp.disk.0).collect()
    }
}

/// A flat I/O plan: every page a range query touches, in one contiguous
/// buffer sliced per disk.
///
/// Replaces the allocating `Vec<Vec<u64>>` plan: disk `d`'s (sorted) pages
/// are `pages[offsets[d]..offsets[d + 1]]`. Reusing one `IoPlan` across
/// queries makes plan construction allocation-free once the buffers have
/// grown to the working-set size.
#[derive(Clone, Debug, Default)]
pub struct IoPlan {
    /// Page numbers grouped by disk, each group sorted ascending.
    pages: Vec<u64>,
    /// `num_disks + 1` group boundaries into `pages`.
    offsets: Vec<usize>,
    /// Per-disk scatter cursors, reused by [`GridDirectory::io_plan_into`].
    cursors: Vec<usize>,
}

impl IoPlan {
    /// An empty plan (fill it with [`GridDirectory::io_plan_into`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of disk groups in the last fill (0 before any fill).
    pub fn num_disks(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The sorted pages disk `d` must fetch (empty for `d` out of range).
    pub fn disk_pages(&self, d: usize) -> &[u64] {
        match (self.offsets.get(d), self.offsets.get(d + 1)) {
            (Some(&lo), Some(&hi)) => &self.pages[lo..hi],
            _ => &[],
        }
    }

    /// Total pages across all disks.
    pub fn total_pages(&self) -> usize {
        self.pages.len()
    }

    /// Iterator over per-disk page groups, disk 0 first.
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.num_disks()).map(move |d| self.disk_pages(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_robin_dir() -> GridDirectory {
        let space = GridSpace::new_2d(4, 4).unwrap();
        let s2 = space.clone();
        GridDirectory::build(space, 4, move |b| {
            DiskId((s2.linearize_unchecked(b.as_slice()) % 4) as u32)
        })
    }

    #[test]
    fn build_assigns_sequential_pages_per_disk() {
        let dir = round_robin_dir();
        // Bucket <0,0> is linear 0 -> disk 0 page 0; <1,0> is linear 4 ->
        // disk 0 page 1.
        assert_eq!(
            dir.lookup(&BucketCoord::from([0, 0])).unwrap(),
            BucketPage {
                disk: DiskId(0),
                page: 0
            }
        );
        assert_eq!(
            dir.lookup(&BucketCoord::from([1, 0])).unwrap(),
            BucketPage {
                disk: DiskId(0),
                page: 1
            }
        );
        assert_eq!(
            dir.lookup(&BucketCoord::from([0, 1])).unwrap(),
            BucketPage {
                disk: DiskId(1),
                page: 0
            }
        );
    }

    #[test]
    fn load_vector_is_balanced_for_round_robin() {
        let dir = round_robin_dir();
        assert_eq!(dir.load_vector(), vec![4, 4, 4, 4]);
        assert_eq!(dir.num_disks(), 4);
    }

    #[test]
    fn buckets_on_disk_in_page_order() {
        let dir = round_robin_dir();
        assert_eq!(dir.buckets_on_disk(DiskId(1)), &[1, 5, 9, 13]);
        assert!(dir.buckets_on_disk(DiskId(9)).is_empty());
    }

    #[test]
    fn lookup_errors_out_of_bounds() {
        let dir = round_robin_dir();
        assert!(dir.lookup(&BucketCoord::from([4, 0])).is_err());
        assert!(dir.lookup_linear(16).is_err());
        assert!(dir.lookup_linear(15).is_ok());
    }

    #[test]
    fn flat_io_plan_covers_region_exactly() {
        let dir = round_robin_dir();
        let region = BucketRegion::new(
            dir.space(),
            BucketCoord::from([0, 0]),
            BucketCoord::from([1, 1]),
        )
        .unwrap();
        let mut plan = IoPlan::new();
        dir.io_plan_into(&region, &mut plan);
        assert_eq!(plan.num_disks(), 4);
        assert_eq!(plan.total_pages() as u64, region.num_buckets());
        // Same groups as the nested plan: disks 0 and 1 fetch pages 0 and 1.
        assert_eq!(plan.disk_pages(0), &[0, 1]);
        assert_eq!(plan.disk_pages(1), &[0, 1]);
        assert!(plan.disk_pages(2).is_empty() && plan.disk_pages(3).is_empty());
        assert!(plan.disk_pages(99).is_empty());
        assert_eq!(plan.iter().count(), 4);
    }

    #[test]
    fn flat_io_plan_matches_fresh_plan_when_reused() {
        let dir = round_robin_dir();
        let mut plan = IoPlan::new();
        // Reuse one arena across regions of different sizes and positions;
        // each fill must match a freshly-built plan exactly.
        for (lo, hi) in [
            ([0u32, 0u32], [3u32, 3u32]),
            ([1, 2], [2, 3]),
            ([2, 2], [2, 2]),
        ] {
            let region =
                BucketRegion::new(dir.space(), BucketCoord::from(lo), BucketCoord::from(hi))
                    .unwrap();
            let mut fresh = IoPlan::new();
            dir.io_plan_into(&region, &mut fresh);
            dir.io_plan_into(&region, &mut plan);
            assert_eq!(plan.num_disks(), fresh.num_disks());
            for d in 0..fresh.num_disks() {
                assert_eq!(plan.disk_pages(d), fresh.disk_pages(d));
            }
        }
    }

    #[test]
    fn disk_table_matches_lookups() {
        let dir = round_robin_dir();
        let table = dir.disk_table();
        assert_eq!(table.len(), 16);
        for id in 0..16u64 {
            assert_eq!(table[id as usize], dir.lookup_linear(id).unwrap().disk.0);
        }
    }

    #[test]
    fn from_table_matches_build_bit_for_bit() {
        let built = round_robin_dir();
        let table = built.disk_table();
        let restored = GridDirectory::from_table(built.space().clone(), 4, &table).unwrap();
        assert_eq!(restored.space(), built.space());
        assert_eq!(restored.num_disks(), built.num_disks());
        assert_eq!(restored.disk_table(), table);
        assert_eq!(restored.load_vector(), built.load_vector());
        for id in 0..16u64 {
            assert_eq!(
                restored.lookup_linear(id).unwrap(),
                built.lookup_linear(id).unwrap()
            );
        }
        for d in 0..4 {
            assert_eq!(
                restored.buckets_on_disk(DiskId(d)),
                built.buckets_on_disk(DiskId(d))
            );
        }
    }

    #[test]
    fn from_table_rejects_bad_input() {
        let space = GridSpace::new_2d(2, 2).unwrap();
        // Wrong length.
        assert!(GridDirectory::from_table(space.clone(), 2, &[0, 1, 0]).is_err());
        // Disk id out of range.
        assert!(GridDirectory::from_table(space.clone(), 2, &[0, 1, 0, 7]).is_err());
        // Exact fit succeeds.
        assert!(GridDirectory::from_table(space, 2, &[0, 1, 0, 1]).is_ok());
    }

    #[test]
    #[should_panic(expected = "assigned")]
    fn build_panics_on_out_of_range_disk() {
        let space = GridSpace::new_2d(2, 2).unwrap();
        let _ = GridDirectory::build(space, 2, |_| DiskId(7));
    }

    #[test]
    fn single_disk_directory() {
        let space = GridSpace::new_2d(3, 3).unwrap();
        let dir = GridDirectory::build(space, 1, |_| DiskId(0));
        assert_eq!(dir.load_vector(), vec![9]);
        assert_eq!(dir.buckets_on_disk(DiskId(0)).len(), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Test-only reference planner: one checked `lookup` per bucket of the
    /// naive region iterator, then a sort per disk group.
    fn reference_plan(dir: &GridDirectory, region: &BucketRegion) -> Vec<Vec<u64>> {
        let mut groups = vec![Vec::new(); dir.num_disks() as usize];
        for bucket in region.iter() {
            let bp = dir.lookup(&bucket).unwrap();
            groups[bp.disk.index()].push(bp.page);
        }
        for group in &mut groups {
            group.sort_unstable();
        }
        groups
    }

    /// Random k in 1..=4 grid (dims ≤ 6), a seeded scattered assignment
    /// over 1..=7 disks, and a region that is random, 1-wide or full per
    /// dimension.
    fn dir_region() -> impl Strategy<Value = (GridDirectory, BucketRegion)> {
        (
            proptest::collection::vec((1u32..=6, 0u32..6, 0u32..6, 0u8..3), 1..5),
            1u32..=7,
            0u64..u64::MAX,
        )
            .prop_map(|(axes, m, seed)| {
                let g = GridSpace::new(axes.iter().map(|a| a.0).collect::<Vec<u32>>()).unwrap();
                let table: Vec<u32> = (0..g.num_buckets())
                    .map(|id| {
                        let h = (id ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        ((h >> 40) % u64::from(m)) as u32
                    })
                    .collect();
                let (mut lo, mut hi) = (Vec::new(), Vec::new());
                for &(d, a, b, mode) in &axes {
                    let (a, b) = (a % d, b % d);
                    let (l, h) = match mode {
                        0 => (0, d - 1),
                        1 => (a, a),
                        _ => (a.min(b), a.max(b)),
                    };
                    lo.push(l);
                    hi.push(h);
                }
                let r = BucketRegion::new(&g, lo.into(), hi.into()).unwrap();
                (GridDirectory::from_table(g, m, &table).unwrap(), r)
            })
    }

    proptest! {
        /// The run-based planner equals the per-bucket lookup reference,
        /// group for group, including when one arena is reused.
        #[test]
        fn io_plan_matches_lookup_reference((dir, r) in dir_region()) {
            let expect = reference_plan(&dir, &r);
            let mut plan = IoPlan::new();
            // Dirty the arena first: a reused plan must match a fresh one.
            dir.io_plan_into(&BucketRegion::full(dir.space()), &mut plan);
            dir.io_plan_into(&r, &mut plan);
            prop_assert_eq!(plan.num_disks(), expect.len());
            for (d, group) in expect.iter().enumerate() {
                prop_assert_eq!(plan.disk_pages(d), group.as_slice());
            }
            prop_assert_eq!(plan.total_pages() as u64, r.num_buckets());
        }

        /// Placement runs cover the region's buckets in row-major order,
        /// each placement matching the per-bucket lookup.
        #[test]
        fn placement_runs_match_lookups((dir, r) in dir_region()) {
            let mut got = Vec::new();
            dir.for_each_placement_run(&r, |start, run| {
                got.extend(run.iter().enumerate().map(|(i, &bp)| (start + i as u64, bp)));
            });
            let expect: Vec<(u64, BucketPage)> = r
                .iter()
                .map(|b| (dir.space().linearize(&b).unwrap(), dir.lookup(&b).unwrap()))
                .collect();
            prop_assert_eq!(got, expect);
        }
    }
}
