//! The persistent block store behind the write cache.
//!
//! Stores a [`BlockImage`] per logical block. File-system tests write
//! real bytes; raw block benchmarks use cheap tags and integrity runs
//! their payload seeds, so a simulated multi-gigabyte run costs
//! megabytes of host memory — and, because nothing reads a benchmark's
//! blocks back, [`BlockStore`] only journals token writes, as deltas,
//! and builds its per-block index when a reader first asks.
//!
//! With end-to-end integrity on, every block that lands on media is
//! *sealed*: the store records the CRC-32C of the intended image next
//! to whatever bytes actually landed. A torn write (partial image,
//! intended seal) or at-rest bit rot (mutated image, original seal)
//! leaves the two inconsistent, which is exactly what a recovery scrub
//! checks for.
//!
//! A generated payload block stays its seed ([`BlockImage::Payload`])
//! until someone reads it: a seal or scrub takes its CRC from the seed
//! alone ([`payload::seal_for`], eight table lookups), and a read
//! materialises the words on the stack. Real bytes are
//! stored as the submitter hands them in, and a read returns a copy.
//! Fault injection stores a fresh image in place of the one it
//! corrupts, and both the seal and the scrub checksum the bytes where
//! they lie ([`BlockImage::crc32c`]).

use std::cell::{Ref, RefCell};

use rio_proto::crc32c_update;
use rio_proto::payload::{self, BLOCK_BYTES};
use rio_sim::FxHashMap;

/// Contents of one 4 KB block.
#[derive(Debug, Clone)]
pub enum BlockImage {
    /// Never written (reads back as zeroes).
    Zero,
    /// A benchmark write identified by a token instead of real bytes.
    Tag(u64),
    /// Real data, as a submitter hands it in.
    Bytes(Box<[u8]>),
    /// A generated payload block, carried as its
    /// [`rio_proto::payload`] seed: the device seals it from the seed
    /// alone, and a read materialises it. It compares
    /// equal to real data of the same content.
    Payload(u64),
}

/// Two images are equal when they are the same kind of block with the
/// same content; whether real data is held as bytes or generated from
/// a seed does not matter.
impl PartialEq for BlockImage {
    fn eq(&self, other: &Self) -> bool {
        use BlockImage::*;
        match (self, other) {
            (Zero, Zero) => true,
            (Tag(a), Tag(b)) | (Payload(a), Payload(b)) => a == b,
            (Zero | Tag(_), _) | (_, Zero | Tag(_)) => false,
            _ => self.with_prefix(usize::MAX, |a| other.with_prefix(usize::MAX, |b| a == b)),
        }
    }
}

impl Eq for BlockImage {}

impl BlockImage {
    /// The real bytes this image holds in memory (`None` for `Zero`,
    /// `Tag` and `Payload`, which a token stands for).
    pub fn data(&self) -> Option<&[u8]> {
        match self {
            BlockImage::Zero | BlockImage::Tag(_) | BlockImage::Payload(_) => None,
            BlockImage::Bytes(b) => Some(b),
        }
    }

    /// Runs `f` over the bytes the image spells out, cut to
    /// `block_size`; the rest of the block is implicit zeroes. A
    /// payload block is materialised on the stack for the call.
    pub(crate) fn with_prefix<R>(&self, block_size: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let (tag, mut block);
        let prefix: &[u8] = match self {
            BlockImage::Zero => &[],
            BlockImage::Tag(t) => {
                tag = t.to_le_bytes();
                &tag
            }
            BlockImage::Bytes(b) => b,
            BlockImage::Payload(seed) => {
                block = [0; BLOCK_BYTES];
                payload::fill_block(*seed, &mut block);
                &block
            }
        };
        f(&prefix[..prefix.len().min(block_size)])
    }

    /// Materialises the block as bytes of length `block_size`.
    pub fn to_bytes(&self, block_size: usize) -> Vec<u8> {
        self.with_prefix(block_size, |prefix| {
            let mut v = vec![0; block_size];
            v[..prefix.len()].copy_from_slice(prefix);
            v
        })
    }

    /// CRC-32C of the block as [`BlockImage::to_bytes`] would
    /// materialise it, without materialising it: the bytes the image
    /// holds are checksummed where they lie, the implicit rest as zero
    /// padding, and a whole payload block is [`payload::seal_for`] of
    /// its seed — eight table lookups, no byte generated.
    pub fn crc32c(&self, block_size: usize) -> u32 {
        static ZEROS: [u8; 4096] = [0; 4096];
        if let (BlockImage::Payload(seed), BLOCK_BYTES) = (self, block_size) {
            return payload::seal_for(*seed);
        }
        self.with_prefix(block_size, |prefix| {
            let mut state = crc32c_update(!0, prefix);
            let mut pad = block_size - prefix.len();
            while pad > 0 {
                let n = pad.min(ZEROS.len());
                state = crc32c_update(state, &ZEROS[..n]);
                pad -= n;
            }
            !state
        })
    }
}

/// The block images of one write command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Images {
    /// This many consecutive blocks, all holding the one image (a
    /// benchmark's tagged write of any length, or any single block).
    Run(BlockImage, u32),
    /// One image per consecutive block.
    List(Vec<BlockImage>),
}

/// A single-image list is a run, so one-block writes — the common
/// case — never carry a vector through the device.
impl From<Vec<BlockImage>> for Images {
    fn from(mut list: Vec<BlockImage>) -> Self {
        if list.len() == 1 {
            Images::Run(list.pop().expect("one image"), 1)
        } else {
            Images::List(list)
        }
    }
}

impl Images {
    /// Number of blocks written.
    pub fn blocks(&self) -> u32 {
        match self {
            Images::Run(_, n) => *n,
            Images::List(list) => list.len() as u32,
        }
    }
}

/// A run of consecutive blocks holding one image: the unit a write
/// travels in, from the device's queues to the store's journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRun {
    /// First block address.
    pub lba: u64,
    /// What every block of the run holds.
    pub image: BlockImage,
    /// Number of blocks.
    pub blocks: u32,
    /// CRC-32C of the *intended* image, when the blocks land sealed.
    /// Clean data carries the checksum of `image` itself; a torn-write
    /// injection passes the intended checksum next to the partial bytes
    /// that actually hit media.
    pub seal: Option<u32>,
}

/// The per-block state readers query, built from the journal on demand.
#[derive(Debug, Default, Clone)]
struct Index {
    blocks: FxHashMap<u64, (u64, BlockImage)>,
    /// Intended-content CRC-32C per sealed block (integrity runs only;
    /// empty — and cost-free — otherwise).
    seals: FxHashMap<u64, u32>,
    /// Version of the last block write folded in.
    version: u64,
}

impl Index {
    /// Applies one write: each block takes the next version, and an
    /// unsealed write drops any stale seal — the recorded checksum
    /// always belongs to the last write.
    fn apply(&mut self, run: BlockRun) {
        for lba in run.lba..run.lba + run.blocks as u64 {
            self.version += 1;
            self.blocks.insert(lba, (self.version, run.image.clone()));
            match run.seal {
                Some(seal) => {
                    self.seals.insert(lba, seal);
                }
                None if !self.seals.is_empty() => {
                    self.seals.remove(&lba);
                }
                None => {}
            }
        }
    }
}

/// A token [`BlockRun`] in two words: the crate's one packed form of a
/// run. The SSD packs a write once, when it accepts it, and the record
/// waits unchanged in the write cache or the in-flight queue until the
/// store's [`Journal`] codes it in fewer bytes. Only token runs —
/// `Zero`, `Tag` and `Payload` — pack, and only a payload run sealed by
/// its seed packs sealed: unpacking re-derives the seal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Record {
    /// `lba << LBA_SHIFT | blocks << COUNT_SHIFT | SEALED | kind`.
    head: u64,
    /// The tag or payload seed (0 for a zero run).
    token: u64,
}

const TAG: u64 = 1;
const PAYLOAD: u64 = 2;
const KIND: u64 = 3;
const SEALED: u64 = 4;
const COUNT_SHIFT: u32 = 3;
const LBA_SHIFT: u32 = u16::BITS;

impl Record {
    /// Packs `blocks` blocks of `image` from `lba`, sealed by the seed
    /// when `sealed`, without deriving the seal. `None` for real data,
    /// a seal on anything but a payload image, or an address or block
    /// count that does not fit.
    pub(crate) fn token(lba: u64, image: &BlockImage, blocks: u32, sealed: bool) -> Option<Record> {
        let (kind, token) = match *image {
            BlockImage::Zero => (0, 0),
            BlockImage::Tag(tag) => (TAG, tag),
            BlockImage::Payload(seed) => (PAYLOAD, seed),
            BlockImage::Bytes(_) => return None,
        };
        let blocks = u64::from(blocks);
        let fits = lba >> (u64::BITS - LBA_SHIFT) == 0 && blocks >> (LBA_SHIFT - COUNT_SHIFT) == 0;
        (fits && (!sealed || kind == PAYLOAD)).then_some(Record {
            head: lba << LBA_SHIFT | blocks << COUNT_SHIFT | (u64::from(sealed) * SEALED) | kind,
            token,
        })
    }

    /// Packs a token run. Real data, any seal but the one the payload
    /// seed spells, or an address or block count that does not fit is
    /// handed back for the index to take on arrival.
    fn pack(run: BlockRun) -> Result<Record, BlockRun> {
        let sealed = match (&run.image, run.seal) {
            (_, None) => false,
            (BlockImage::Payload(seed), Some(seal)) if seal == payload::seal_for(*seed) => true,
            _ => return Err(run),
        };
        Record::token(run.lba, &run.image, run.blocks, sealed).ok_or(run)
    }

    pub(crate) fn unpack(self) -> BlockRun {
        let image = match self.head & KIND {
            TAG => BlockImage::Tag(self.token),
            PAYLOAD => BlockImage::Payload(self.token),
            _ => BlockImage::Zero,
        };
        BlockRun {
            lba: self.lba(),
            image,
            blocks: self.blocks(),
            seal: (self.head & SEALED != 0).then(|| payload::seal_for(self.token)),
        }
    }

    /// First block address.
    pub(crate) fn lba(self) -> u64 {
        self.head >> LBA_SHIFT
    }

    /// Number of blocks.
    pub(crate) fn blocks(self) -> u32 {
        (self.head as u16 >> COUNT_SHIFT).into()
    }
}

/// The most bytes a coded record takes: a head of up to 17 bits and an
/// address step of up to 50 bits as varints, then 8 bytes of token.
const MAX_RECORD: usize = 3 + 8 + 8;
/// Chunk capacities double from the first to the last, then stay.
const FIRST_CHUNK: usize = 256;
const LAST_CHUNK: usize = 64 << 10;

/// The token writes no reader has looked at yet, in append order, each
/// coded against the one before as LEB128 varints: the head's low 16
/// bits over a raw flag, the zigzag step from the previous run's end to
/// this address, and the zigzag token step — or, when that is wider
/// than 56 bits, the raw 8-byte token. A RIO write costs 3–7 bytes. No
/// record straddles two chunks, so at most one is part-filled.
#[derive(Debug, Default)]
struct Journal {
    chunks: Vec<Vec<u8>>,
    /// The previous record's run end (`lba + blocks`) and token.
    end: u64,
    token: u64,
}

impl Journal {
    /// Appends `record`, coded against the one before it, into a chunk
    /// with room for a worst-case record.
    fn push(&mut self, record: Record) {
        let last = self.chunks.last();
        if last.map_or(0, |c| c.capacity() - c.len()) < MAX_RECORD {
            let capacity = last.map_or(FIRST_CHUNK, |c| (2 * c.capacity()).min(LAST_CHUNK));
            self.chunks.push(Vec::with_capacity(capacity));
        }
        let tail = self.chunks.len() - 1;
        let chunk = &mut self.chunks[tail];
        let step = zigzag(record.token.wrapping_sub(self.token));
        let raw = step >> 56 != 0;
        put_varint(chunk, (record.head & 0xffff) << 1 | u64::from(raw));
        put_varint(chunk, zigzag(record.lba().wrapping_sub(self.end)));
        if raw {
            chunk.extend_from_slice(&record.token.to_le_bytes());
        } else {
            put_varint(chunk, step);
        }
        self.end = record.lba() + u64::from(record.blocks());
        self.token = record.token;
    }

    /// Hands every record to `f` in append order, freeing each chunk
    /// once read, and leaves the journal empty, its coding state reset.
    fn drain(&mut self, mut f: impl FnMut(Record)) {
        let (mut end, mut token) = (0u64, 0u64);
        for chunk in std::mem::take(self).chunks {
            let mut at = 0;
            while at < chunk.len() {
                let head = get_varint(&chunk, &mut at);
                let lba = end.wrapping_add(unzigzag(get_varint(&chunk, &mut at)));
                token = if head & 1 != 0 {
                    at += 8;
                    u64::from_le_bytes(std::array::from_fn(|i| chunk[at - 8 + i]))
                } else {
                    token.wrapping_add(unzigzag(get_varint(&chunk, &mut at)))
                };
                let head = lba << LBA_SHIFT | head >> 1;
                let record = Record { head, token };
                end = lba + u64::from(record.blocks());
                f(record);
            }
        }
    }
}

/// A two's-complement step as a number that is small when the step is.
fn zigzag(step: u64) -> u64 {
    step << 1 ^ ((step as i64) >> 63) as u64
}

fn unzigzag(z: u64) -> u64 {
    z >> 1 ^ (z & 1).wrapping_neg()
}

/// Appends `v` as a LEB128 varint.
fn put_varint(chunk: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        chunk.push(v as u8 | 0x80);
        v >>= 7;
    }
    chunk.push(v as u8);
}

/// Reads the LEB128 varint at `chunk[*at..]` and moves `at` past it.
fn get_varint(chunk: &[u8], at: &mut usize) -> u64 {
    let (mut v, mut shift) = (0, 0);
    loop {
        let byte = chunk[*at];
        *at += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return v;
        }
        shift += 7;
    }
}

#[derive(Debug, Default)]
struct State {
    /// Writes no reader has looked at yet. Versions are not stored —
    /// every block write takes the next one in append order, so the
    /// fold recounts them.
    journal: Journal,
    index: Index,
}

impl State {
    /// Replays the journal into the index, in append order, and frees
    /// it. Deterministic: versions were fixed by the appends, and the
    /// last write to a block wins exactly as if each had been applied
    /// on arrival.
    fn fold(&mut self) -> &mut Index {
        let index = &mut self.index;
        self.journal.drain(|record| index.apply(record.unpack()));
        index
    }
}

/// A sparse persistent store of block images with write versioning.
///
/// A write journal with a fold-on-read index: a write appends its
/// deltas from the run before (3–19 bytes) and hashes nothing, and the first
/// reader after it replays the journal, in order, into the per-block
/// maps. Every accepted command lands here once and a fault-free run
/// never reads it back, so it pays one append per command instead of
/// a map insert per block; a crash pays the same inserts once,
/// batched, when recovery first looks. The journal grows with the
/// writes since the last read and is freed by the fold. Only tagged,
/// zero and payload blocks wait there; real data is indexed on arrival
/// (see [`BlockStore::write_run`]).
///
/// The fold hides behind a `RefCell` so readers keep taking `&self`:
/// observing a store never changes what it holds. The maps use the
/// simulator's fast deterministic hasher.
#[derive(Debug, Default)]
pub struct BlockStore {
    state: RefCell<State>,
    next_version: u64,
}

/// A clone is the folded image of the store; it starts with an empty
/// journal.
impl Clone for BlockStore {
    fn clone(&self) -> Self {
        BlockStore {
            state: RefCell::new(State {
                journal: Journal::default(),
                index: self.index().clone(),
            }),
            next_version: self.next_version,
        }
    }
}

impl BlockStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        BlockStore::default()
    }

    /// The folded index, for readers. With nothing to fold it only
    /// borrows shared, so a reader's callback may read again.
    fn index(&self) -> Ref<'_, Index> {
        if !self.state.borrow().journal.chunks.is_empty() {
            self.state.borrow_mut().fold();
        }
        Ref::map(self.state.borrow(), |s| &s.index)
    }

    /// The folded index, for the writers that edit blocks in place.
    fn index_mut(&mut self) -> &mut Index {
        self.state.get_mut().fold()
    }

    /// Writes a run of blocks. Returns the version of the first block;
    /// the rest take the following ones.
    pub fn write_run(&mut self, run: BlockRun) -> u64 {
        match Record::pack(run) {
            Ok(record) => self.write_record(record),
            // A journalled record would pin its buffer until the next
            // fold, however often the block is overwritten, so real
            // data goes straight to the index; producing and
            // checksumming it dwarfs the two map inserts anyway. A
            // payload block has no buffer to pin and journals like a
            // tag.
            Err(run) => {
                let first = self.next_version + 1;
                self.next_version += u64::from(run.blocks);
                self.state.get_mut().fold().apply(run);
                first
            }
        }
    }

    /// Journals a packed run with the versions [`BlockStore::write_run`]
    /// gives the run it packs, and returns the first.
    pub(crate) fn write_record(&mut self, record: Record) -> u64 {
        let first = self.next_version + 1;
        self.next_version += u64::from(record.blocks());
        self.state.get_mut().journal.push(record);
        first
    }

    /// Writes one block, returning its new version number. An unsealed
    /// write drops any stale seal: the recorded checksum always belongs
    /// to the last write.
    pub fn write(&mut self, lba: u64, image: BlockImage) -> u64 {
        self.write_run(BlockRun {
            lba,
            image,
            blocks: 1,
            seal: None,
        })
    }

    /// Writes one block together with the CRC-32C of its *intended*
    /// image. Callers landing clean data pass the checksum of `image`
    /// itself; a torn-write injection passes the intended checksum next
    /// to the partial bytes that actually hit media.
    pub fn write_sealed(&mut self, lba: u64, image: BlockImage, seal: u32) -> u64 {
        self.write_run(BlockRun {
            lba,
            image,
            blocks: 1,
            seal: Some(seal),
        })
    }

    /// The recorded seal of `lba`, if the block was written sealed.
    pub fn seal(&self, lba: u64) -> Option<u32> {
        self.index().seals.get(&lba).copied()
    }

    /// Every sealed block address, ascending.
    pub fn sealed_lbas(&self) -> Vec<u64> {
        let mut lbas = Vec::new();
        self.for_each_sealed(|lba, _, _| lbas.push(lba));
        lbas
    }

    /// Calls `f(lba, seal, image)` for every sealed block, ascending by
    /// address (a deterministic scrub order), lending each stored image
    /// — a scrub re-checksums every block without cloning any.
    pub fn for_each_sealed(&self, mut f: impl FnMut(u64, u32, &BlockImage)) {
        let index = self.index();
        let mut sealed: Vec<(u64, u32)> = index.seals.iter().map(|(k, v)| (*k, *v)).collect();
        sealed.sort_unstable();
        for (lba, seal) in sealed {
            let (_, img) = index.blocks.get(&lba).expect("sealed block has an image");
            f(lba, seal, img);
        }
    }

    /// Flips one bit of the stored image of `lba` without touching its
    /// seal (at-rest bit rot). Returns `false` when the block holds no
    /// data. `bit` indexes into the materialised `block_size`-byte
    /// image.
    pub fn flip_bit(&mut self, lba: u64, bit: usize, block_size: usize) -> bool {
        let Some((_, img)) = self.index_mut().blocks.get_mut(&lba) else {
            return false;
        };
        let mut bytes = img.to_bytes(block_size);
        bytes[bit / 8] ^= 1 << (bit % 8);
        *img = BlockImage::Bytes(bytes.into_boxed_slice());
        true
    }

    /// Reads one block (unwritten blocks read back as [`BlockImage::Zero`]).
    pub fn read(&self, lba: u64) -> BlockImage {
        let index = self.index();
        index
            .blocks
            .get(&lba)
            .map_or(BlockImage::Zero, |(_, img)| img.clone())
    }

    /// The version of the last write to `lba` (0 when never written).
    pub fn version(&self, lba: u64) -> u64 {
        self.index().blocks.get(&lba).map_or(0, |(v, _)| *v)
    }

    /// Erases `count` blocks starting at `lba` (recovery roll-back /
    /// TRIM). Seals go with their blocks.
    pub fn discard(&mut self, lba: u64, count: u64) {
        let index = self.index_mut();
        for b in lba..lba + count {
            index.blocks.remove(&b);
            if !index.seals.is_empty() {
                index.seals.remove(&b);
            }
        }
    }

    /// Number of written blocks.
    #[cfg(test)]
    pub fn written_blocks(&self) -> usize {
        self.index().blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rio_proto::payload::{block_for, seal_for};
    use rio_sim::SimRng;

    /// The eager store the journal replaced, kept as the reference
    /// model: every write updates the per-block maps on arrival.
    #[derive(Default, Clone)]
    struct EagerStore {
        blocks: FxHashMap<u64, (u64, BlockImage)>,
        seals: FxHashMap<u64, u32>,
        next_version: u64,
    }

    impl EagerStore {
        fn write(&mut self, lba: u64, image: BlockImage) -> u64 {
            self.next_version += 1;
            self.blocks.insert(lba, (self.next_version, image));
            self.seals.remove(&lba);
            self.next_version
        }

        fn write_sealed(&mut self, lba: u64, image: BlockImage, seal: u32) -> u64 {
            let v = self.write(lba, image);
            self.seals.insert(lba, seal);
            v
        }

        fn sealed_lbas(&self) -> Vec<u64> {
            let mut v: Vec<u64> = self.seals.keys().copied().collect();
            v.sort_unstable();
            v
        }

        fn flip_bit(&mut self, lba: u64, bit: usize, block_size: usize) -> bool {
            let Some((_, img)) = self.blocks.get_mut(&lba) else {
                return false;
            };
            let mut bytes = img.to_bytes(block_size);
            bytes[bit / 8] ^= 1 << (bit % 8);
            *img = BlockImage::Bytes(bytes.into_boxed_slice());
            true
        }

        fn read(&self, lba: u64) -> BlockImage {
            self.blocks
                .get(&lba)
                .map_or(BlockImage::Zero, |(_, img)| img.clone())
        }

        fn version(&self, lba: u64) -> u64 {
            self.blocks.get(&lba).map_or(0, |(v, _)| *v)
        }

        fn discard(&mut self, lba: u64, count: u64) {
            for b in lba..lba + count {
                self.blocks.remove(&b);
                self.seals.remove(&b);
            }
        }
    }

    /// Every reader of `store` against the reference, over all of the
    /// script's address space.
    fn assert_same_view(store: &BlockStore, oracle: &EagerStore, at: &str) {
        assert_eq!(store.written_blocks(), oracle.blocks.len(), "{at}");
        assert_eq!(store.sealed_lbas(), oracle.sealed_lbas(), "{at}");
        for lba in 0..LBAS + 8 {
            assert_eq!(store.read(lba), oracle.read(lba), "{at}: image of {lba}");
            assert_eq!(
                store.version(lba),
                oracle.version(lba),
                "{at}: version of {lba}"
            );
            assert_eq!(
                store.seal(lba),
                oracle.seals.get(&lba).copied(),
                "{at}: seal of {lba}"
            );
        }
        let mut visited = Vec::new();
        store.for_each_sealed(|lba, seal, img| {
            assert_eq!(Some(seal), store.seal(lba), "{at}");
            assert_eq!(*img, store.read(lba), "{at}");
            visited.push(lba);
        });
        assert_eq!(visited, oracle.sealed_lbas(), "{at}: scrub order");
    }

    const LBAS: u64 = 24;

    /// Writes `run` to both stores: a run equals its blocks written one
    /// by one.
    fn write_both(store: &mut BlockStore, oracle: &mut EagerStore, run: BlockRun, at: &str) {
        let first = store.write_run(run.clone());
        for b in run.lba..run.lba + u64::from(run.blocks) {
            let v = match run.seal {
                Some(seal) => oracle.write_sealed(b, run.image.clone(), seal),
                None => oracle.write(b, run.image.clone()),
            };
            assert_eq!(v, first + (b - run.lba), "{at}: contiguous versions");
        }
    }

    #[test]
    fn journal_store_matches_the_eager_reference_under_random_scripts() {
        for seed in 0..64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut store = BlockStore::new();
            let mut oracle = EagerStore::default();
            // Some scripts never read until the end, some read often.
            let read_permille = [0, 50, 300][seed as usize % 3];
            if seed % 8 == 7 {
                // A burst of token runs whose full-width tokens mostly
                // take the raw escape, long enough for the journal to
                // fill more than one 64 KiB chunk before anything
                // folds it.
                for step in 0..20_000 {
                    let token = rng.next_u64();
                    let (image, seal) = match rng.below(4) {
                        0 => (BlockImage::Zero, None),
                        1 => (BlockImage::Tag(token), None),
                        2 => (BlockImage::Payload(token), None),
                        _ => (BlockImage::Payload(token), Some(seal_for(token))),
                    };
                    let run = BlockRun {
                        lba: rng.below(LBAS),
                        image,
                        blocks: rng.between(1, 8) as u32,
                        seal,
                    };
                    write_both(
                        &mut store,
                        &mut oracle,
                        run,
                        &format!("seed {seed} burst {step}"),
                    );
                }
                let state = store.state.borrow();
                let full = state
                    .journal
                    .chunks
                    .iter()
                    .filter(|c| c.capacity() == LAST_CHUNK);
                assert!(
                    full.count() >= 2,
                    "seed {seed}: the burst spans 64 KiB chunks"
                );
            }
            for step in 0..400 {
                let at = format!("seed {seed} step {step}");
                let lba = rng.below(LBAS);
                let image = match rng.below(5) {
                    0 => BlockImage::Zero,
                    1 => BlockImage::Bytes(vec![rng.below(256) as u8; 16].into_boxed_slice()),
                    2 => BlockImage::Payload(rng.below(1 << 20)),
                    _ => BlockImage::Tag(rng.below(1 << 20)),
                };
                // Half the seals are the one a payload seed spells, so
                // journalled and indexed sealed runs interleave.
                let seal = match image {
                    BlockImage::Payload(seed) if rng.chance(0.5) => seal_for(seed),
                    _ => rng.below(1 << 32) as u32,
                };
                match rng.below(12) {
                    0..=2 => assert_eq!(
                        store.write(lba, image.clone()),
                        oracle.write(lba, image),
                        "{at}"
                    ),
                    3..=4 => assert_eq!(
                        store.write_sealed(lba, image.clone(), seal),
                        oracle.write_sealed(lba, image, seal),
                        "{at}"
                    ),
                    5..=7 => {
                        let run = BlockRun {
                            lba,
                            image,
                            blocks: rng.between(1, 8) as u32,
                            seal: rng.chance(0.5).then_some(seal),
                        };
                        write_both(&mut store, &mut oracle, run, &at);
                    }
                    8 => {
                        let count = rng.between(1, 6);
                        store.discard(lba, count);
                        oracle.discard(lba, count);
                    }
                    9 => {
                        let bit = rng.below(64 * 8) as usize;
                        assert_eq!(
                            store.flip_bit(lba, bit, 64),
                            oracle.flip_bit(lba, bit, 64),
                            "{at}"
                        );
                    }
                    10 => {
                        // Carry on with the clone; the original must
                        // still answer the same afterwards.
                        let copy = store.clone();
                        assert_same_view(&store, &oracle, &at);
                        store = copy;
                    }
                    _ => {}
                }
                if rng.below(1000) < read_permille {
                    match rng.below(4) {
                        0 => assert_eq!(store.read(lba), oracle.read(lba), "{at}"),
                        1 => assert_eq!(store.version(lba), oracle.version(lba), "{at}"),
                        2 => assert_eq!(store.sealed_lbas(), oracle.sealed_lbas(), "{at}"),
                        _ => assert_eq!(store.written_blocks(), oracle.blocks.len(), "{at}"),
                    }
                }
            }
            assert_same_view(&store, &oracle, &format!("seed {seed} end"));
        }
    }

    #[test]
    fn single_image_lists_travel_as_runs() {
        let one = vec![BlockImage::Tag(3)];
        assert_eq!(Images::from(one), Images::Run(BlockImage::Tag(3), 1));
        let two = vec![BlockImage::Tag(3), BlockImage::Zero];
        assert_eq!(Images::from(two.clone()), Images::List(two));
        assert_eq!(Images::from(Vec::new()).blocks(), 0);
        assert_eq!(Images::Run(BlockImage::Zero, 7).blocks(), 7);
    }

    #[test]
    fn unwritten_reads_zero() {
        let s = BlockStore::new();
        assert_eq!(s.read(42), BlockImage::Zero);
        assert_eq!(s.version(42), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut s = BlockStore::new();
        let v1 = s.write(1, BlockImage::Tag(7));
        assert_eq!(s.read(1), BlockImage::Tag(7));
        let v2 = s.write(1, BlockImage::Tag(8));
        assert!(v2 > v1, "versions increase");
        assert_eq!(s.read(1), BlockImage::Tag(8));
    }

    #[test]
    fn bytes_round_trip() {
        let mut s = BlockStore::new();
        let data: Box<[u8]> = vec![0xAB; 4096].into_boxed_slice();
        s.write(5, BlockImage::Bytes(data.clone()));
        assert_eq!(s.read(5), BlockImage::Bytes(data));
    }

    #[test]
    fn discard_erases_range() {
        let mut s = BlockStore::new();
        for lba in 0..10 {
            s.write(lba, BlockImage::Tag(lba));
        }
        s.discard(2, 3);
        assert_eq!(s.read(1), BlockImage::Tag(1));
        assert_eq!(s.read(2), BlockImage::Zero);
        assert_eq!(s.read(4), BlockImage::Zero);
        assert_eq!(s.read(5), BlockImage::Tag(5));
        assert_eq!(s.written_blocks(), 7);
    }

    #[test]
    fn sealed_write_records_and_clears_checksums() {
        let mut s = BlockStore::new();
        s.write_sealed(3, BlockImage::Tag(9), 0xDEAD_BEEF);
        assert_eq!(s.seal(3), Some(0xDEAD_BEEF));
        assert_eq!(s.sealed_lbas(), vec![3]);
        // An unsealed overwrite drops the stale seal.
        s.write(3, BlockImage::Tag(10));
        assert_eq!(s.seal(3), None);
        assert!(s.sealed_lbas().is_empty());
    }

    #[test]
    fn discard_takes_seals_with_it() {
        let mut s = BlockStore::new();
        s.write_sealed(5, BlockImage::Tag(1), 7);
        s.write_sealed(6, BlockImage::Tag(2), 8);
        s.discard(5, 1);
        assert_eq!(s.seal(5), None);
        assert_eq!(s.seal(6), Some(8));
    }

    #[test]
    fn flip_bit_mutates_image_but_not_seal() {
        let mut s = BlockStore::new();
        let clean = BlockImage::Tag(0xFF).to_bytes(64);
        s.write_sealed(1, BlockImage::Tag(0xFF), 123);
        assert!(s.flip_bit(1, 9, 64));
        let rotten = s.read(1).to_bytes(64);
        assert_ne!(clean, rotten);
        assert_eq!(clean[1] ^ 2, rotten[1], "exactly bit 9 flipped");
        assert_eq!(s.seal(1), Some(123), "seal untouched by rot");
        assert!(!s.flip_bit(99, 0, 64), "absent block cannot rot");
    }

    #[test]
    fn image_checksum_equals_crc_of_materialised_block() {
        let full: Box<[u8]> = (0..4096u32).map(|i| (i * 31 + 7) as u8).collect();
        let images = [
            BlockImage::Zero,
            BlockImage::Tag(0x0123_4567_89AB_CDEF),
            BlockImage::Bytes(vec![9, 9].into_boxed_slice()),
            BlockImage::Bytes(full),
            BlockImage::Payload(77),
        ];
        // 4 096 is the device block, where a payload block seals from
        // its seed alone; the others cover a pad longer than the static zero
        // run and an image longer than the block, where it is cut.
        for block_size in [4096, 10_000, 64, 4] {
            for img in &images {
                assert_eq!(
                    img.crc32c(block_size),
                    rio_proto::crc32c(&img.to_bytes(block_size)),
                    "{block_size}-byte block of {img:?}",
                );
            }
        }
        assert_eq!(BlockImage::Payload(77).crc32c(4096), seal_for(77));
    }

    #[test]
    fn images_compare_by_content() {
        let data: Box<[u8]> = vec![0xAB; 4096].into_boxed_slice();
        let copy = BlockImage::Bytes(data.clone());
        assert_eq!(copy, BlockImage::Bytes(data), "equality is by content");
        // A generated block has no buffer: it stays its seed, seals to
        // `seal_for` and equals the bytes it spells.
        let img = BlockImage::Payload(9);
        assert_eq!(img.data(), None);
        assert_eq!(img.crc32c(4096), seal_for(9));
        assert_eq!(seal_for(9), rio_proto::crc32c(&block_for(9)));
        let bytes = BlockImage::Bytes(block_for(9));
        assert_eq!(img, bytes);
        assert_eq!(bytes, img);
        assert_ne!(img, BlockImage::Payload(10));
        assert_ne!(img, BlockImage::Bytes(block_for(10)));
        assert_ne!(img, BlockImage::Tag(9), "a seed is not a tag");
        assert_ne!(BlockImage::Tag(0), BlockImage::Zero);
        assert_ne!(
            BlockImage::Bytes(vec![0; 8].into_boxed_slice()),
            BlockImage::Zero,
            "real zero bytes are still real data"
        );
    }

    #[test]
    fn a_block_image_stays_three_words() {
        // Every media hash-map entry and pending device operation holds
        // one; a fourth word costs each of them eight bytes per block.
        assert_eq!(std::mem::size_of::<BlockImage>(), 24);
    }

    #[test]
    fn a_journal_record_is_two_words() {
        // The cache and the in-flight queue carry a write as this; the
        // journal codes it in fewer bytes (see the next test).
        assert_eq!(std::mem::size_of::<Record>(), 16);
    }

    /// The bytes each of `records` adds to a fresh journal.
    fn costs(records: impl IntoIterator<Item = Record>) -> Vec<usize> {
        let mut journal = Journal::default();
        let held = |j: &Journal| j.chunks.iter().map(Vec::len).sum::<usize>();
        let mut costs = Vec::new();
        for record in records {
            let before = held(&journal);
            journal.push(record);
            costs.push(held(&journal) - before);
        }
        costs
    }

    #[test]
    fn a_journal_record_costs_its_deltas() {
        let tag = |lba, tag| Record::token(lba, &BlockImage::Tag(tag), 1, false).expect("fits");
        // Sequential one-block writes with sequential tags: every step
        // is a single byte.
        let sequential = costs((0..10_000).map(|i| tag(i, i + 1)));
        assert!(sequential.iter().all(|&n| n == 3), "{sequential:?}");
        // Random writes below 2^27 with sequential tags (a RIO group
        // sequence): the address step takes at most four bytes.
        let mut rng = SimRng::seed_from_u64(5);
        let random = costs((0..10_000).map(|i| tag(rng.below(1 << 27), i + 1)));
        assert!(random.iter().all(|&n| n <= 7), "{random:?}");
        // Random payload seeds take the raw escape: a one-byte head,
        // the address step and the 8-byte seed, 13 bytes at most and
        // so never more than the unpacked 16-byte record.
        let payload = costs((0..10_000).map(|_| {
            let seed = rng.next_u64();
            Record::token(rng.below(1 << 27), &BlockImage::Payload(seed), 1, true).expect("fits")
        }));
        assert!(payload.iter().all(|&n| n <= 1 + 4 + 8), "{payload:?}");
    }

    #[test]
    fn journal_records_come_back_identical_through_drain() {
        let mut rng = SimRng::seed_from_u64(39);
        let mut journal = Journal::default();
        let mut records = Vec::new();
        for i in 0..60_000u64 {
            let lba = match i % 4 {
                // Alternating jumps across the whole address space.
                0 if i % 8 == 0 => (1 << 48) - 1,
                0 | 1 => i % 3,
                _ => rng.below(1 << 48),
            };
            let token = match rng.below(4) {
                0 => 0,
                1 => u64::MAX,
                // Alternating tokens 2^62 apart force the raw escape.
                2 => (i & 1) << 62,
                _ => rng.next_u64(),
            };
            let blocks = rng.between(1, (1 << 13) - 1) as u32;
            let image = [
                BlockImage::Zero,
                BlockImage::Tag(token),
                BlockImage::Payload(token),
            ];
            let image = &image[rng.below(3) as usize];
            let sealed = matches!(image, BlockImage::Payload(_)) && rng.chance(0.5);
            let record = Record::token(lba, image, blocks, sealed).expect("fits");
            journal.push(record);
            records.push(record);
        }
        // Capacities double to 64 KiB and no chunk ever grew.
        let capacities: Vec<usize> = journal.chunks.iter().map(Vec::capacity).collect();
        let expected = (0..).map(|k| (FIRST_CHUNK << k).min(LAST_CHUNK));
        assert!(
            capacities.iter().zip(expected).all(|(c, e)| *c == e),
            "{capacities:?}"
        );
        assert!(capacities.iter().filter(|&&c| c == LAST_CHUNK).count() >= 4);
        let mut drained = Vec::new();
        journal.drain(|record| drained.push(record));
        assert!(
            drained == records,
            "records come back in order and unchanged"
        );
        assert!(journal.chunks.is_empty());
        // Draining reset the coding state: the first record costs what
        // it cost in a fresh journal.
        journal.push(records[0]);
        assert_eq!(journal.chunks[0].len(), costs([records[0]])[0]);
        journal.drain(|record| assert_eq!(record, records[0]));
    }

    #[test]
    fn a_record_unpacks_to_the_run_it_packed() {
        let run = |lba, image, blocks, seal| BlockRun {
            lba,
            image,
            blocks,
            seal,
        };
        let (lba, blocks) = ((1 << 48) - 1, (1 << 13) - 1);
        for (image, seal) in [
            (BlockImage::Zero, None),
            (BlockImage::Tag(u64::MAX), None),
            (BlockImage::Payload(u64::MAX), None),
            (BlockImage::Payload(7), Some(seal_for(7))),
        ] {
            let run = run(lba, image, blocks, seal);
            let record = Record::pack(run.clone()).expect("a token run packs");
            assert_eq!(record.unpack(), run);
        }
        // Everything else goes to the index instead: real data, a seal
        // the seed does not spell, and an address or count too wide.
        let bytes = BlockImage::Bytes(vec![1; 8].into_boxed_slice());
        for run in [
            run(0, bytes, 1, None),
            run(0, BlockImage::Payload(7), 1, Some(seal_for(7) ^ 1)),
            run(0, BlockImage::Tag(7), 1, Some(0)),
            run(0, BlockImage::Zero, 1, Some(0)),
            run(1 << 48, BlockImage::Tag(1), 1, None),
            run(0, BlockImage::Tag(1), 1 << 13, None),
        ] {
            assert_eq!(Record::pack(run.clone()).unwrap_err(), run);
        }
    }

    #[test]
    fn to_bytes_materialisation() {
        assert_eq!(BlockImage::Zero.to_bytes(8), vec![0; 8]);
        let tag = BlockImage::Tag(0x0102).to_bytes(16);
        assert_eq!(tag[0], 0x02);
        assert_eq!(tag[1], 0x01);
        let short = BlockImage::Bytes(vec![9, 9].into_boxed_slice()).to_bytes(4);
        assert_eq!(short, vec![9, 9, 0, 0]);
    }
}
