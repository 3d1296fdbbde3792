//! Uniform memory accounting (DESIGN.md decision 8).
//!
//! The paper's Table 9 and Table 12 compare the memory footprints of
//! Inc-Greedy's coverage sets against the NetClus index. [`HeapSize`]
//! exposes every measurable structure through one trait so the benchmark
//! harness reports like against like: live heap bytes of the data
//! structures themselves, independent of allocator or runtime overhead
//! (the paper's JVM numbers include such overhead; relative ordering is
//! what must reproduce).
//!
//! Coverage lists now live in flat CSR arenas ([`crate::arena`]): 12
//! bytes per `(id, distance)` pair plus one 4-byte offset per row,
//! replacing the 16-bytes-per-pair + 24-bytes-per-list `Vec<Vec<_>>`
//! layout. The accounting here reports the arena layout's real (smaller)
//! footprint; [`crate::coverage::ReferenceProvider::vec_layout_bytes`]
//! models the legacy layout for before/after comparisons.

use crate::arena::PairArena;
use crate::coverage::CoverageIndex;
use crate::index::NetClusIndex;
use crate::query::ClusteredProvider;

/// Approximate live heap bytes owned by a structure.
pub trait HeapSize {
    /// Heap bytes reachable from `self` (excluding `size_of::<Self>()`).
    fn heap_size_bytes(&self) -> usize;
}

impl HeapSize for CoverageIndex {
    fn heap_size_bytes(&self) -> usize {
        CoverageIndex::heap_size_bytes(self)
    }
}

impl HeapSize for NetClusIndex {
    fn heap_size_bytes(&self) -> usize {
        NetClusIndex::heap_size_bytes(self)
    }
}

impl HeapSize for ClusteredProvider {
    fn heap_size_bytes(&self) -> usize {
        ClusteredProvider::heap_size_bytes(self)
    }
}

impl HeapSize for PairArena {
    fn heap_size_bytes(&self) -> usize {
        PairArena::heap_size_bytes(self)
    }
}

/// Pretty-prints a byte count with binary units (e.g. `"3.22 GiB"`).
pub fn format_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut value = bytes as f64;
    let mut unit = 0;
    while value >= 1024.0 && unit + 1 < UNITS.len() {
        value /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{value:.2} {}", UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(0), "0 B");
        assert_eq!(format_bytes(512), "512 B");
        assert_eq!(format_bytes(2048), "2.00 KiB");
        assert_eq!(format_bytes(5 * 1024 * 1024), "5.00 MiB");
        assert_eq!(
            format_bytes(3 * 1024 * 1024 * 1024 + 250 * 1024 * 1024),
            "3.24 GiB"
        );
    }
}
