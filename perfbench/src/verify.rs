//! Correctness gates: expected content for every response, and the
//! write-version ledger that says which bytes a read may see while writes
//! are in flight.

use crate::stats::digest;
use ccm_core::{BlockId, FileId, BLOCK_SIZE};
use ccm_rt::{BlockStore, Catalog, NodeHandle, SyntheticStore, WriteError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The reference content: the synthetic store the data files were built
/// from, and a digest of every whole file.
pub struct Expect {
    synth: SyntheticStore,
    catalog: Catalog,
    file_digest: Vec<u64>,
}

impl Expect {
    /// Reference content for `catalog` under content seed `seed`.
    pub fn new(catalog: &Catalog, seed: u64) -> Expect {
        let synth = SyntheticStore::new(catalog.clone(), seed);
        let file_digest = (0..catalog.num_files())
            .map(|f| {
                digest(&ccm_rt::store::read_file_direct(
                    &synth,
                    catalog,
                    FileId(f as u32),
                ))
            })
            .collect();
        Expect {
            synth,
            catalog: catalog.clone(),
            file_digest,
        }
    }

    /// The store the data files are built from.
    pub fn synth(&self) -> &SyntheticStore {
        &self.synth
    }

    /// True if `body` is exactly `file`.
    pub fn file(&self, file: FileId, body: &[u8]) -> bool {
        body.len() as u64 == self.catalog.size_of(file)
            && digest(body) == self.file_digest[file.0 as usize]
    }

    /// True if `body` is exactly bytes `start..=end` of `file`.
    pub fn range(&self, file: FileId, start: u64, end: u64, body: &[u8]) -> bool {
        let mut want = Vec::with_capacity((end - start + 1) as usize);
        for b in (start / BLOCK_SIZE) as u32..=(end / BLOCK_SIZE) as u32 {
            let block = self.synth.read_block(BlockId::new(file, b));
            let base = b as u64 * BLOCK_SIZE;
            let lo = start.saturating_sub(base) as usize;
            let hi = ((end + 1 - base) as usize).min(block.len());
            want.extend_from_slice(&block[lo..hi]);
        }
        want == body
    }
}

/// Content of `block` at write version `v` (from 1): the version as 8
/// little-endian bytes, then bytes derived from block and version.
pub fn versioned(seed: u64, block: BlockId, v: u64, len: usize) -> Vec<u8> {
    let mut state = seed ^ ((block.file.0 as u64) << 32 | block.index as u64) ^ v.rotate_left(17);
    let mut out = v.to_le_bytes().to_vec();
    while out.len() < len {
        out.extend_from_slice(&simcore::rng::splitmix64(&mut state).to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Per-block write versions. One benchmark-side lock per block keeps one
/// writer per block at a time, so a reader can bound the version it may
/// see: at least the one acknowledged before it started, at most the one
/// begun before it finished.
pub struct Versions {
    seed: u64,
    catalog: Catalog,
    /// First flat block index of each file.
    base: Vec<usize>,
    locks: Vec<Mutex<()>>,
    begun: Vec<AtomicU64>,
    acked: Vec<AtomicU64>,
}

impl Versions {
    /// No writes yet, over `catalog`.
    pub fn new(catalog: &Catalog, seed: u64) -> Versions {
        let mut base = Vec::with_capacity(catalog.num_files());
        let mut n = 0;
        for f in 0..catalog.num_files() {
            base.push(n);
            n += catalog.blocks_of(FileId(f as u32)) as usize;
        }
        Versions {
            seed,
            catalog: catalog.clone(),
            base,
            locks: (0..n).map(|_| Mutex::new(())).collect(),
            begun: (0..n).map(|_| AtomicU64::new(0)).collect(),
            acked: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn slot(&self, block: BlockId) -> usize {
        self.base[block.file.0 as usize] + block.index as usize
    }

    /// Write the next version of `block` through `handle`.
    pub fn write(&self, handle: &NodeHandle, block: BlockId) -> Result<(), WriteError> {
        let i = self.slot(block);
        let _one_writer = self.locks[i].lock().expect("version lock poisoned");
        let v = self.begun[i].load(Ordering::SeqCst) + 1;
        self.begun[i].store(v, Ordering::SeqCst);
        let len = self.catalog.block_bytes(block) as usize;
        handle.write_block(block, &versioned(self.seed, block, v, len))?;
        self.acked[i].store(v, Ordering::SeqCst);
        Ok(())
    }

    /// Acknowledged versions of `file`'s blocks, taken before a read.
    pub fn before(&self, file: FileId) -> Vec<u64> {
        let i = self.base[file.0 as usize];
        let n = self.catalog.blocks_of(file) as usize;
        self.acked[i..i + n]
            .iter()
            .map(|a| a.load(Ordering::SeqCst))
            .collect()
    }

    /// Check that `body`, read of `file` after [`Versions::before`] gave
    /// `before`, holds for every block a version the read may see.
    pub fn check(
        &self,
        expect: &Expect,
        file: FileId,
        before: &[u64],
        body: &[u8],
    ) -> Result<(), String> {
        if body.len() as u64 != self.catalog.size_of(file) {
            return Err(format!("{file:?}: {}-byte body", body.len()));
        }
        let i = self.base[file.0 as usize];
        for (b, bytes) in body.chunks(BLOCK_SIZE as usize).enumerate() {
            let block = BlockId::new(file, b as u32);
            let upto = self.begun[i + b].load(Ordering::SeqCst);
            if bytes == expect.synth.read_block(block).as_slice() {
                if before[b] == 0 {
                    continue;
                }
                return Err(format!(
                    "{block:?}: read the original bytes after version {} was acknowledged",
                    before[b]
                ));
            }
            let v = bytes
                .get(..8)
                .map_or(0, |s| u64::from_le_bytes(s.try_into().expect("8 bytes")));
            if v < before[b].max(1)
                || v > upto
                || bytes != versioned(self.seed, block, v, bytes.len())
            {
                return Err(format!(
                    "{block:?}: read version stamp {v}, acknowledged {} before the read, {upto} begun after",
                    before[b]
                ));
            }
        }
        Ok(())
    }

    /// Writes acknowledged so far.
    pub fn writes(&self) -> u64 {
        self.acked.iter().map(|a| a.load(Ordering::SeqCst)).sum()
    }

    /// Blocks whose acknowledged version is not byte-equal in `store`.
    pub fn unpersisted(&self, store: &dyn BlockStore) -> Vec<BlockId> {
        let mut bad = Vec::new();
        for f in 0..self.catalog.num_files() {
            let file = FileId(f as u32);
            for b in 0..self.catalog.blocks_of(file) {
                let block = BlockId::new(file, b);
                let v = self.acked[self.slot(block)].load(Ordering::SeqCst);
                let len = self.catalog.block_bytes(block) as usize;
                if v > 0 && store.read_block(block) != versioned(self.seed, block, v, len) {
                    bad.push(block);
                }
            }
        }
        bad
    }
}
