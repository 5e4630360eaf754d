//! Simulated device memory: global buffers and constant memory.
//!
//! Each global buffer is stored at its element's own width — 4 bytes per
//! `u32`, 8 per `i64`/`u64` — behind typed [`Buf<T>`] handles, mirroring
//! how CUDA device pointers are raw addresses with types applied by the
//! kernel code. A `Vec<u64>` backs every buffer, so elements of either
//! width stay aligned.

use std::marker::PhantomData;

mod sealed {
    pub trait Sealed {}
}

/// Value types storable in simulated device memory.
///
/// Sealed: every implementor is a plain 4- or 8-byte integer or float for
/// which every bit pattern is a valid value, which is what lets the native
/// backend move buffer contents with typed `memcpy`s.
pub trait DeviceValue: Copy + Default + 'static + sealed::Sealed {
    /// Encode as a 64-bit pattern (the value's bits in the low
    /// `8 · size_of::<Self>()` bits).
    fn to_bits(self) -> u64;
    /// Decode from a 64-bit pattern (only the low `8 · size_of::<Self>()`
    /// bits are read).
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_device_value_int {
    ($($t:ty),*) => {$(
        impl sealed::Sealed for $t {}
        impl DeviceValue for $t {
            #[inline]
            fn to_bits(self) -> u64 { self as u64 }
            #[inline]
            fn from_bits(bits: u64) -> Self { bits as $t }
        }
    )*};
}
impl_device_value_int!(u32, u64, i32, i64, usize);

impl sealed::Sealed for f64 {}
impl DeviceValue for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits()
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl sealed::Sealed for f32 {}
impl DeviceValue for f32 {
    #[inline]
    fn to_bits(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

/// Typed handle to a global-memory buffer (cheap to copy, like a device
/// pointer).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Buf<T> {
    pub(crate) id: usize,
    pub(crate) len: usize,
    _ph: PhantomData<fn() -> T>,
}

impl<T> Clone for Buf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Buf<T> {}

impl<T> Buf<T> {
    pub(crate) fn new(id: usize, len: usize) -> Self {
        Buf { id, len, _ph: PhantomData }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: DeviceValue> Buf<T> {
    /// Drop the type for kernel-argument passing.
    pub fn erased(self) -> ErasedBuf {
        ErasedBuf { id: self.id, len: self.len, width: size_of::<T>() }
    }
}

/// Untyped buffer handle (a kernel argument, like a `void*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ErasedBuf {
    pub(crate) id: usize,
    pub(crate) len: usize,
    /// Element width in bytes the buffer was allocated with.
    pub(crate) width: usize,
}

impl ErasedBuf {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-apply a type (the kernel-side cast of a `void*` argument).
    ///
    /// # Panics
    /// Panics if `T`'s width differs from the width the buffer was
    /// allocated with: a 4-byte buffer is never reinterpreted as 8 bytes.
    pub fn typed<T: DeviceValue>(self) -> Buf<T> {
        assert_eq!(
            size_of::<T>(),
            self.width,
            "buffer {} holds {}-byte elements, not {}-byte ones",
            self.id,
            self.width,
            size_of::<T>()
        );
        Buf::new(self.id, self.len)
    }
}

/// Typed handle to a constant-memory region (read-only on device, broadcast
/// reads — the paper stores `d` and `n` there "to benefit from its broadcast
/// mechanism").
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct ConstBuf<T> {
    pub(crate) id: usize,
    pub(crate) len: usize,
    _ph: PhantomData<fn() -> T>,
}

impl<T> Clone for ConstBuf<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for ConstBuf<T> {}

impl<T> ConstBuf<T> {
    pub(crate) fn new(id: usize, len: usize) -> Self {
        ConstBuf { id, len, _ph: PhantomData }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One global buffer: `len` elements of `width` bytes each, packed into
/// `⌈len · width / 8⌉` words. The fields stay private to this module, so
/// the word count always covers `len` elements of `width` bytes.
#[derive(Debug)]
pub(crate) struct GlobalBuf {
    words: Vec<u64>,
    len: usize,
    width: usize,
}

impl GlobalBuf {
    /// `(base pointer, element count, element width in bytes)`.
    pub(crate) fn raw_parts(&mut self) -> (*mut u64, usize, usize) {
        (self.words.as_mut_ptr(), self.len, self.width)
    }

    /// Check that `T` is the element type buffer `id` (of `width`-byte
    /// elements) was allocated with.
    #[inline]
    pub(crate) fn check_width<T: DeviceValue>(id: usize, width: usize) {
        assert!(
            width == size_of::<T>(),
            "buffer {id} holds {width}-byte elements, accessed as {}-byte ones",
            size_of::<T>()
        );
    }
}

/// The device's memory: global buffers + constant regions.
#[derive(Debug, Default)]
pub(crate) struct MemoryPool {
    pub(crate) global: Vec<GlobalBuf>,
    pub(crate) constant: Vec<Vec<u64>>,
    pub(crate) constant_bytes: usize,
}

impl MemoryPool {
    /// Allocate a zeroed buffer of `len` elements of `T`'s width.
    pub(crate) fn alloc<T: DeviceValue>(&mut self, len: usize) -> usize {
        let width = size_of::<T>();
        self.global.push(GlobalBuf { words: vec![0u64; (len * width).div_ceil(8)], len, width });
        self.global.len() - 1
    }

    /// The elements of buffer `id` as a typed slice.
    pub(crate) fn slice<T: DeviceValue>(&self, id: usize) -> &[T] {
        let b = &self.global[id];
        GlobalBuf::check_width::<T>(id, b.width);
        // SAFETY: the words hold `len` elements of `T`'s width (checked
        // above), `Vec<u64>` storage is aligned for any `DeviceValue`, and
        // every bit pattern is a valid `DeviceValue` (the trait is sealed).
        unsafe { std::slice::from_raw_parts(b.words.as_ptr() as *const T, b.len) }
    }

    /// The elements of buffer `id` as a mutable typed slice.
    pub(crate) fn slice_mut<T: DeviceValue>(&mut self, id: usize) -> &mut [T] {
        let b = &mut self.global[id];
        GlobalBuf::check_width::<T>(id, b.width);
        // SAFETY: as in `slice`, plus exclusivity through `&mut self`.
        unsafe { std::slice::from_raw_parts_mut(b.words.as_mut_ptr() as *mut T, b.len) }
    }

    pub(crate) fn alloc_const(&mut self, words: Vec<u64>) -> usize {
        self.constant_bytes += words.len() * 8;
        self.constant.push(words);
        self.constant.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_round_trips() {
        assert_eq!(i64::from_bits((-5i64).to_bits()), -5);
        assert_eq!(u32::from_bits(7u32.to_bits()), 7);
        assert_eq!(f64::from_bits((0.25f64).to_bits()), 0.25);
        assert_eq!(f32::from_bits((-1.5f32).to_bits()), -1.5);
        assert_eq!(i32::from_bits((-1i32).to_bits()), -1);
    }

    #[test]
    fn negative_i64_survives() {
        let v: i64 = i64::MIN + 3;
        assert_eq!(i64::from_bits(v.to_bits()), v);
    }

    #[test]
    fn erased_round_trip() {
        let b: Buf<i64> = Buf::new(3, 10);
        let e = b.erased();
        assert_eq!(e.len(), 10);
        let t: Buf<i64> = e.typed();
        assert_eq!(t, b);
        // Same width, different type: a legal cast.
        let _: Buf<u64> = e.typed();
    }

    #[test]
    #[should_panic(expected = "holds 4-byte elements")]
    fn erased_refuses_a_wider_type() {
        let b: Buf<u32> = Buf::new(0, 10);
        let _: Buf<i64> = b.erased().typed();
    }

    #[test]
    fn pool_allocates_zeroed() {
        let mut p = MemoryPool::default();
        let id = p.alloc::<i64>(4);
        assert_eq!(p.slice::<i64>(id), &[0i64; 4]);
        let cid = p.alloc_const(vec![1, 2]);
        assert_eq!(p.constant[cid], vec![1, 2]);
        assert_eq!(p.constant_bytes, 16);
    }

    #[test]
    fn buffers_are_stored_at_their_own_width() {
        let mut p = MemoryPool::default();
        for len in [0usize, 1, 2, 7, 8, 1001] {
            let a = p.alloc::<u32>(len);
            assert_eq!(p.global[a].words.len(), len.div_ceil(2), "u32 × {len}");
            let b = p.alloc::<i64>(len);
            assert_eq!(p.global[b].words.len(), len, "i64 × {len}");
            let c = p.alloc::<u64>(len);
            assert_eq!(p.global[c].words.len(), len, "u64 × {len}");
        }
    }

    #[test]
    #[should_panic(expected = "accessed as 8-byte ones")]
    fn pool_refuses_a_mismatched_width() {
        let mut p = MemoryPool::default();
        let id = p.alloc::<u32>(4);
        let _ = p.slice::<u64>(id);
    }
}
