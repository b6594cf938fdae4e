//! Distance-field cache for the auction assignment layer.
//!
//! Stations, staging anchors, and stocked pickup sites are fixed for an
//! instance's lifetime, so every distance the auction repeatedly needs
//! between them is computable once, up front:
//!
//! * **Anchor fields** — one full undirected BFS field per station
//!   anchor (dense `Vec<u32>` per the flat-index invariant, built via
//!   [`FloorplanGraph::bfs_distances_into`]). The rebalance pass reads
//!   an idle agent's bid in O(1) instead of probing escalating-cap BFS
//!   neighbourhoods from the anchor every executed tick; the escalation
//!   *slate* (everything within the first 32/128/512/∞ cap that catches
//!   the nearest bidder) is reconstructed exactly from the field.
//! * **Sorted site lists** — per `(station, product)`: the stocked sites
//!   ordered by field-directed distance (and site index), one list per
//!   direction. Site choice
//!   ([`AuctionState::pick_station_site`](crate::assign)) becomes "first
//!   entry with unreserved stock" instead of a full scan with a
//!   `BTreeMap` stock lookup per `(station, site)` pair, and follow-up
//!   batching walks sites in ascending out-distance with an early exit.
//!   A cursor per list skips the exhausted prefix. Assignment-time
//!   reservations only remove stock, so between restores a site that
//!   reads empty stays empty. Stock comes back only when shed work
//!   returns its unit (`AuctionState::restore_unit`), and that rewinds
//!   the product's cursors ([`DistFields::rewind`]).
//!
//! Memory: the lists store every reachable `(station, stocked site)`
//! pair twice (once per direction) at 8 bytes each, plus one `u32` per
//! vertex per anchor field — [`DistFields::bytes`] reports the real
//! total, which the bench note and docs/BENCHMARKS.md account for
//! (~51 MB on the 105k-vertex floor, dominated by the lists).
//!
//! Everything here is a pure precomputation: the cached lookups are
//! provably equal to the fresh scans they replace (property-tested
//! below and in `tests/assign_properties.rs`), so assignment decisions
//! are bit-identical with or without the cache.

use wsp_model::{FloorplanGraph, LocationMatrix, ProductId, VertexId};

/// One stocked site at a precomputed field distance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SiteEntry {
    /// Field-directed distance (toward or out of the list's station).
    pub d: u32,
    /// The stocked shelf-access vertex.
    pub site: VertexId,
}

/// The auction's precomputed distance structures; see the module docs.
#[derive(Debug)]
pub(crate) struct DistFields {
    products: usize,
    /// `in_lists[q * products + p]`: stocked sites of `p` with a finite
    /// field route *to* station `q`, ascending `(distance, site)`.
    in_lists: Vec<Vec<SiteEntry>>,
    /// First `in_lists` entry not yet known to be exhausted.
    in_cursor: Vec<usize>,
    /// `out_lists[q * products + p]`: same sites keyed by the *forward*
    /// field distance out of station `q` (prices follow-up batch legs).
    out_lists: Vec<Vec<SiteEntry>>,
    /// First `out_lists` entry not yet known to be exhausted.
    out_cursor: Vec<usize>,
    /// Per station: full undirected BFS field from its staging anchor.
    anchor_fields: Vec<Vec<u32>>,
}

impl DistFields {
    /// Builds the cache from the auction's per-station directed fields
    /// and per-product site lists (all fixed at construction).
    pub(crate) fn new(
        graph: &FloorplanGraph,
        anchors: &[VertexId],
        to_station: &[Vec<u32>],
        from_station: &[Vec<u32>],
        sites: &[Vec<VertexId>],
    ) -> Self {
        let products = sites.len();
        let build = |fields: &[Vec<u32>]| -> Vec<Vec<SiteEntry>> {
            let mut lists = Vec::with_capacity(fields.len() * products);
            for field in fields {
                for list in sites {
                    let mut entries: Vec<SiteEntry> = list
                        .iter()
                        .filter_map(|&s| {
                            let d = field[s.index()];
                            (d != u32::MAX).then_some(SiteEntry { d, site: s })
                        })
                        .collect();
                    entries.sort_unstable_by_key(|e| (e.d, e.site.index()));
                    lists.push(entries);
                }
            }
            lists
        };
        let in_lists = build(to_station);
        let out_lists = build(from_station);
        let mut anchor_fields = Vec::with_capacity(anchors.len());
        let mut field = Vec::new();
        for &a in anchors {
            graph.bfs_distances_into(a, &mut field);
            anchor_fields.push(field.clone());
        }
        DistFields {
            products,
            in_cursor: vec![0; in_lists.len()],
            out_cursor: vec![0; out_lists.len()],
            in_lists,
            out_lists,
            anchor_fields,
        }
    }

    /// The cheapest stocked `(distance, site)` of `product` toward
    /// station `q` — the exact minimum the old full scan computed,
    /// because the list is ascending `(d, site)` and skipped entries
    /// have no stock. Skips are remembered until the next
    /// [`rewind`](Self::rewind) of `product`.
    pub(crate) fn first_stocked_in(
        &mut self,
        q: usize,
        product: ProductId,
        reserved: &LocationMatrix,
    ) -> Option<(u32, VertexId)> {
        let idx = q * self.products + product.index();
        let list = &self.in_lists[idx];
        let cur = &mut self.in_cursor[idx];
        while *cur < list.len() && reserved.units_at(list[*cur].site, product) == 0 {
            *cur += 1;
        }
        list.get(*cur).map(|e| (e.d, e.site))
    }

    /// The sites of `product` reachable out of station `q`, ascending by
    /// forward field distance, with the exhausted prefix skipped (and
    /// the skip remembered). Interior entries may still be out of stock
    /// — callers re-check, they just stop paying for the drained prefix.
    pub(crate) fn stocked_out_tail(
        &mut self,
        q: usize,
        product: ProductId,
        reserved: &LocationMatrix,
    ) -> &[SiteEntry] {
        let idx = q * self.products + product.index();
        let list = &self.out_lists[idx];
        let cur = &mut self.out_cursor[idx];
        while *cur < list.len() && reserved.units_at(list[*cur].site, product) == 0 {
            *cur += 1;
        }
        &list[*cur..]
    }

    /// Resets every station's cursors for `product` to the list start:
    /// a restored unit may sit inside a prefix the cursors skipped.
    pub(crate) fn rewind(&mut self, product: ProductId) {
        for q in 0..self.in_cursor.len() / self.products.max(1) {
            let idx = q * self.products + product.index();
            self.in_cursor[idx] = 0;
            self.out_cursor[idx] = 0;
        }
    }

    /// Full undirected BFS distances from station `q`'s staging anchor.
    pub(crate) fn anchor_field(&self, q: usize) -> &[u32] {
        &self.anchor_fields[q]
    }

    /// Resident bytes of the cache (lists + cursors + anchor fields),
    /// for the bench note's memory accounting.
    pub(crate) fn bytes(&self) -> usize {
        let entries: usize = self
            .in_lists
            .iter()
            .chain(self.out_lists.iter())
            .map(Vec::len)
            .sum();
        entries * std::mem::size_of::<SiteEntry>()
            + (self.in_cursor.len() + self.out_cursor.len()) * std::mem::size_of::<usize>()
            + self.anchor_fields.iter().map(Vec::len).sum::<usize>() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `first_stocked_in` must equal the pre-cache scan: minimum
    /// `(distance, site)` over stocked, field-reachable sites — as stock
    /// drains and the cursor advances, and after a unit comes back.
    #[test]
    fn first_stocked_matches_fresh_scan_while_stock_drains() {
        // A hand-rolled field over 6 vertices; product 0 stocked at four
        // of them with assorted distances, including an unreachable one.
        let field = vec![vec![4u32, 2, 7, 2, u32::MAX, 0]];
        let sites = vec![vec![VertexId(0), VertexId(1), VertexId(3), VertexId(4)]];
        let graph = wsp_model::FloorplanGraph::from_grid(
            &wsp_model::GridMap::from_ascii("......").unwrap(),
        );
        let mut reserved = LocationMatrix::new();
        for &v in &sites[0] {
            reserved.add_units(v, ProductId(0), 1);
        }
        let mut fields = DistFields::new(&graph, &[], &field, &field, &sites);
        let oracle = |reserved: &LocationMatrix| {
            sites[0]
                .iter()
                .filter(|&&s| reserved.units_at(s, ProductId(0)) > 0)
                .filter_map(|&s| {
                    let d = field[0][s.index()];
                    (d != u32::MAX).then_some((d, s))
                })
                .min_by_key(|&(d, s)| (d, s.index()))
        };
        // Drain stock one unit at a time, checking the cached answer at
        // every step (v1 and v3 tie at distance 2; v1 wins by index).
        for expect_drop in [VertexId(1), VertexId(3), VertexId(0)] {
            let got = fields.first_stocked_in(0, ProductId(0), &reserved);
            assert_eq!(got, oracle(&reserved));
            let (_, s) = got.expect("stock remains");
            assert_eq!(s, expect_drop);
            reserved.remove_units(s, ProductId(0), 1);
        }
        // v4 is unreachable (MAX): never returned, and once the three
        // reachable sites drain the answer is None.
        assert_eq!(fields.first_stocked_in(0, ProductId(0), &reserved), None);
        assert_eq!(oracle(&reserved), None);
        // A shed pickup returns v1's unit behind the cursor; the rewind
        // makes it visible again.
        reserved.add_units(VertexId(1), ProductId(0), 1);
        fields.rewind(ProductId(0));
        let got = fields.first_stocked_in(0, ProductId(0), &reserved);
        assert_eq!(got, oracle(&reserved));
        assert_eq!(got, Some((2, VertexId(1))));
    }
}
