//! Arithmetic in GF(2^255 - 19), the base field of curve25519.
//!
//! Elements are stored as five 51-bit limbs (`value = Σ limb_i · 2^(51·i)`),
//! the classic "donna" representation: limb products fit comfortably in
//! `u128` and the prime's shape lets the carry out of the top limb wrap
//! around multiplied by 19. Both [`crate::x25519`] and [`crate::ed25519`]
//! build on this module.

/// Low 51 bits.
const MASK51: u64 = (1u64 << 51) - 1;

/// Exclusive upper bound on every limb of every [`Fe`] this module hands
/// out: 2^51 + 2^12.
///
/// Values are *lazily reduced*: operations leave each limb a little above
/// 51 bits and the represented integer possibly above p, and only
/// [`Fe::to_bytes`] (with [`Fe::equals`], [`Fe::is_zero`] and
/// [`Fe::parity`] built on it) reduces fully. Every operation accepts
/// limbs below this bound and returns limbs below it; the per-operation
/// comments give the arithmetic. The bound must stay at or below the
/// limbs of 2p that [`Fe::sub`] adds, so that subtraction never borrows.
const LIMB_BOUND: u64 = (1 << 51) + (1 << 12);

/// 2p in limb form: 2^52 - 38 in limb 0, 2^52 - 2 in limbs 1..4.
const TWO_P0: u64 = 2 * (MASK51 - 18);
const TWO_PI: u64 = 2 * MASK51;
const _: () = assert!(LIMB_BOUND <= TWO_P0 && LIMB_BOUND <= TWO_PI);

/// An element of GF(2^255 - 19).
///
/// Limbs are lazily reduced: each is below `LIMB_BOUND` (2^51 + 2^12),
/// and the value is only canonicalised by [`Fe::to_bytes`]. Compare
/// elements with [`Fe::equals`], never limb by limb.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub(crate) [u64; 5]);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);
    /// `sqrt(-1) = 2^((p-1)/4)`, one of the two roots (2 is a non-square
    /// mod p, so its `(p-1)/4`-th power squares to -1).
    pub const SQRT_M1: Fe = Fe([
        1_718_705_420_411_056,
        234_908_883_556_509,
        2_233_514_472_574_048,
        2_117_202_627_021_982,
        765_476_049_583_133,
    ]);

    /// Builds an element from a small integer.
    #[must_use]
    pub const fn from_u64(v: u64) -> Fe {
        Fe([v & MASK51, (v >> 51) & MASK51, 0, 0, 0])
    }

    /// Decodes 32 little-endian bytes; the top bit (bit 255) is ignored,
    /// matching RFC 7748 field-element decoding.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |i: usize| -> u64 {
            let mut v = 0u64;
            for j in 0..8 {
                v |= (bytes[i + j] as u64) << (8 * j);
            }
            v
        };
        let lo0 = load(0);
        let lo1 = load(6) >> 3;
        let lo2 = load(12) >> 6;
        let lo3 = load(19) >> 1;
        let lo4 = load(24) >> 12;
        Fe([
            lo0 & MASK51,
            lo1 & MASK51,
            lo2 & MASK51,
            lo3 & MASK51,
            lo4 & MASK51,
        ])
    }

    /// Encodes the element canonically as 32 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = self.reduce_limbs().0;
        // After reduce_limbs all limbs are < 2^51, so the value is in
        // [0, 2^255). At most one subtraction of p is needed: the value is
        // >= p = 2^255 - 19 iff limbs 1..4 are maximal and limb 0 >= 2^51-19.
        let ge_p = t[1] == MASK51
            && t[2] == MASK51
            && t[3] == MASK51
            && t[4] == MASK51
            && t[0] >= MASK51 - 18;
        if ge_p {
            t[0] -= MASK51 - 18;
            t[1] = 0;
            t[2] = 0;
            t[3] = 0;
            t[4] = 0;
        }
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for &limb in &t {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 && idx < 32 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        while idx < 32 {
            out[idx] = (acc & 0xff) as u8;
            acc >>= 8;
            idx += 1;
        }
        out
    }

    /// Propagates carries so that every limb is < 2^51.
    fn reduce_limbs(self) -> Fe {
        let mut t = self.0;
        // Two passes handle any limbs below 2^52, which covers LIMB_BOUND.
        for _ in 0..2 {
            let mut carry;
            carry = t[0] >> 51;
            t[0] &= MASK51;
            t[1] += carry;
            carry = t[1] >> 51;
            t[1] &= MASK51;
            t[2] += carry;
            carry = t[2] >> 51;
            t[2] &= MASK51;
            t[3] += carry;
            carry = t[3] >> 51;
            t[3] &= MASK51;
            t[4] += carry;
            carry = t[4] >> 51;
            t[4] &= MASK51;
            t[0] += 19 * carry;
        }
        let carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] += carry;
        Fe(t)
    }

    /// One parallel carry pass: every limb keeps its low 51 bits and gains
    /// the carry of the limb below (limb 0 gains 19 times limb 4's). For
    /// limbs below 2^53 each carry is at most 3, so the result is below
    /// 2^51 + 57 per limb, inside [`LIMB_BOUND`].
    #[inline(always)]
    fn weak_reduce(t: [u64; 5]) -> Fe {
        Fe([
            (t[0] & MASK51) + 19 * (t[4] >> 51),
            (t[1] & MASK51) + (t[0] >> 51),
            (t[2] & MASK51) + (t[1] >> 51),
            (t[3] & MASK51) + (t[2] >> 51),
            (t[4] & MASK51) + (t[3] >> 51),
        ])
    }

    /// Carries five u128 column sums (each below 2^113) into limbs: one
    /// carry chain through limb 4, its carry folded into limb 0 times 19,
    /// then one carry out of limb 0.
    ///
    /// With inputs below [`LIMB_BOUND`] the top column is below
    /// 5·LIMB_BOUND² ≈ 5·2^102, so the folded carry is below 95·2^51 < 2^58
    /// and the final carry into limb 1 below 96: limbs end below 2^51 + 96.
    #[inline(always)]
    fn carry_wide(r: [u128; 5]) -> Fe {
        let [r0, mut r1, mut r2, mut r3, mut r4] = r;
        let mut t = [0u64; 5];
        r1 += r0 >> 51;
        t[0] = (r0 as u64) & MASK51;
        r2 += r1 >> 51;
        t[1] = (r1 as u64) & MASK51;
        r3 += r2 >> 51;
        t[2] = (r2 as u64) & MASK51;
        r4 += r3 >> 51;
        t[3] = (r3 as u64) & MASK51;
        t[4] = (r4 as u64) & MASK51;
        t[0] += ((r4 >> 51) as u64) * 19;
        t[1] += t[0] >> 51;
        t[0] &= MASK51;
        Fe(t)
    }

    /// Field addition.
    #[must_use]
    pub fn add(self, rhs: Fe) -> Fe {
        // Sums are below 2·LIMB_BOUND < 2^53.
        Fe::weak_reduce([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
            self.0[4] + rhs.0[4],
        ])
    }

    /// Field subtraction.
    #[must_use]
    pub fn sub(self, rhs: Fe) -> Fe {
        // Add 2p (in limb form) before subtracting so limbs stay positive;
        // that needs every rhs limb at or below 2p's, which LIMB_BOUND
        // guarantees. Results are below LIMB_BOUND + 2^52 < 2^53.
        debug_assert!(
            rhs.0.iter().all(|&l| l < LIMB_BOUND),
            "sub: rhs limb out of bound: {rhs:?}"
        );
        Fe::weak_reduce([
            self.0[0] + TWO_P0 - rhs.0[0],
            self.0[1] + TWO_PI - rhs.0[1],
            self.0[2] + TWO_PI - rhs.0[2],
            self.0[3] + TWO_PI - rhs.0[3],
            self.0[4] + TWO_PI - rhs.0[4],
        ])
    }

    /// Field negation.
    #[must_use]
    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(self, rhs: Fe) -> Fe {
        let a = &self.0;
        let b = &rhs.0;
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        Fe::carry_wide([
            m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19),
            m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19),
            m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19),
            m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19),
            m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]),
        ])
    }

    /// Field squaring: the 25 limb products of [`Fe::mul`] collapse to 15,
    /// each cross term computed once and doubled.
    #[must_use]
    pub fn square(self) -> Fe {
        let a = &self.0;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        Fe::carry_wide([
            m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19)),
            m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19)),
            m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19)),
            m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2])),
            m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3])),
        ])
    }

    /// `self^(2^k)`: `k` successive squarings.
    #[must_use]
    fn pow2k(self, k: u32) -> Fe {
        let mut x = self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// Multiplication by a small constant (the ladder's `a24 = 121665`).
    ///
    /// Column products are below 2^84, so the folded carry is below 2^38
    /// and limbs end below 2^51 + 1.
    #[must_use]
    pub(crate) fn mul_small(self, k: u32) -> Fe {
        let k = u128::from(k);
        let a = &self.0;
        Fe::carry_wide([
            a[0] as u128 * k,
            a[1] as u128 * k,
            a[2] as u128 * k,
            a[3] as u128 * k,
            a[4] as u128 * k,
        ])
    }

    /// The shared head of [`Fe::invert`] and [`Fe::pow_p58`]: returns
    /// `(self^(2^250 - 1), self^11)` by the standard addition chain
    /// (249 squarings, 10 multiplications).
    fn pow22501(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.pow2k(2).mul(self);
        let z11 = z9.mul(z2);
        // Exponent names: z_a_b = self^(2^a - 2^b).
        let z_5_0 = z11.square().mul(z9);
        let z_10_0 = z_5_0.pow2k(5).mul(z_5_0);
        let z_20_0 = z_10_0.pow2k(10).mul(z_10_0);
        let z_40_0 = z_20_0.pow2k(20).mul(z_20_0);
        let z_50_0 = z_40_0.pow2k(10).mul(z_10_0);
        let z_100_0 = z_50_0.pow2k(50).mul(z_50_0);
        let z_200_0 = z_100_0.pow2k(100).mul(z_100_0);
        let z_250_0 = z_200_0.pow2k(50).mul(z_50_0);
        (z_250_0, z11)
    }

    /// Multiplicative inverse via Fermat: `self^(p-2)`, with
    /// `p - 2 = (2^250 - 1)·2^5 + 11`.
    ///
    /// Returns zero for zero input (callers must handle that case).
    #[must_use]
    pub fn invert(self) -> Fe {
        let (z_250_0, z11) = self.pow22501();
        z_250_0.pow2k(5).mul(z11)
    }

    /// `self^((p-5)/8)`, used for square-root extraction on the curve;
    /// `(p-5)/8 = (2^250 - 1)·2^2 + 1`.
    #[must_use]
    pub fn pow_p58(self) -> Fe {
        let (z_250_0, _) = self.pow22501();
        z_250_0.pow2k(2).mul(self)
    }

    /// True if the element is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    /// Canonical equality (comparing reduced encodings).
    #[must_use]
    pub fn equals(self, other: Fe) -> bool {
        self.to_bytes() == other.to_bytes()
    }

    /// Returns the low bit of the canonical encoding (the "sign" of x in
    /// Edwards-point compression).
    #[must_use]
    pub fn parity(self) -> u8 {
        self.to_bytes()[0] & 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    #[test]
    fn add_sub_small() {
        assert!(fe(5).add(fe(7)).equals(fe(12)));
        assert!(fe(12).sub(fe(7)).equals(fe(5)));
        assert!(fe(0).sub(fe(1)).add(fe(1)).equals(Fe::ZERO));
    }

    #[test]
    fn mul_small() {
        assert!(fe(6).mul(fe(7)).equals(fe(42)));
        assert!(fe(1 << 30)
            .mul(fe(1 << 30))
            .equals(Fe([0, 1 << 9, 0, 0, 0])));
    }

    #[test]
    fn p_is_zero() {
        // p = 2^255 - 19 encoded as limbs must reduce to zero.
        let p = Fe([MASK51 - 18, MASK51, MASK51, MASK51, MASK51]);
        assert!(p.is_zero());
        assert_eq!(p.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn p_plus_one_is_one() {
        let p1 = Fe([MASK51 - 17, MASK51, MASK51, MASK51, MASK51]);
        assert!(p1.equals(Fe::ONE));
    }

    #[test]
    fn bytes_roundtrip() {
        let mut b = [0u8; 32];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as u8).wrapping_mul(37).wrapping_add(1);
        }
        b[31] &= 0x7f; // Keep below 2^255 so the encoding is canonical.
        let x = Fe::from_bytes(&b);
        assert_eq!(x.to_bytes(), b);
    }

    #[test]
    fn inverse_of_two() {
        let inv2 = fe(2).invert();
        assert!(inv2.mul(fe(2)).equals(Fe::ONE));
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::SQRT_M1;
        assert!(i.square().equals(Fe::ONE.neg()));
        // The constant is exactly 2^((p-1)/4), (p-1)/4 = 2^253 - 5.
        let mut exp = [0xffu8; 32];
        exp[0] = 0xfb;
        exp[31] = 0x1f;
        let pow = reference::pow_bytes_le(fe(2), &exp);
        assert_eq!(i.to_bytes(), pow.to_bytes());
        assert_eq!(i.0, pow.0, "SQRT_M1 limbs must be canonical");
    }

    #[test]
    fn pow_p58_consistency() {
        // For v a nonzero square, v^((p-5)/8) * v relates to sqrt(v):
        // check the standard identity (v^((p-5)/8))^8 * v^3 is v^((p-5)+3)
        // indirectly via invert: x^(p-2) * x == 1.
        let x = fe(123_456_789);
        assert!(x.invert().mul(x).equals(Fe::ONE));
        let y = x.pow_p58();
        // y = x^((p-5)/8) => y^8 = x^(p-5) = x^(-4) (Fermat), so y^8*x^4 = 1.
        let y8 = y.square().square().square();
        let x4 = x.square().square();
        assert!(y8.mul(x4).equals(Fe::ONE));
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in any::<u64>(), b in any::<u64>()) {
            prop_assert!(fe(a).add(fe(b)).equals(fe(b).add(fe(a))));
        }

        #[test]
        fn prop_mul_commutes(a in any::<u64>(), b in any::<u64>()) {
            prop_assert!(fe(a).mul(fe(b)).equals(fe(b).mul(fe(a))));
        }

        #[test]
        fn prop_distributive(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
            let lhs = fe(a).mul(fe(b).add(fe(c)));
            let rhs = fe(a).mul(fe(b)).add(fe(a).mul(fe(c)));
            prop_assert!(lhs.equals(rhs));
        }

        #[test]
        fn prop_sub_add_roundtrip(a in any::<u64>(), b in any::<u64>()) {
            prop_assert!(fe(a).sub(fe(b)).add(fe(b)).equals(fe(a)));
        }

        #[test]
        fn prop_invert(a in 1u64..) {
            prop_assert!(fe(a).invert().mul(fe(a)).equals(Fe::ONE));
        }

        #[test]
        fn prop_bytes_roundtrip(bytes in any::<[u8; 32]>()) {
            let mut b = bytes;
            b[31] &= 0x7f;
            // Skip the few non-canonical encodings in [p, 2^255).
            let x = Fe::from_bytes(&b);
            let rt = Fe::from_bytes(&x.to_bytes());
            prop_assert!(x.equals(rt));
        }

        #[test]
        fn prop_random_field_mul_assoc(a in any::<[u8;32]>(), b in any::<[u8;32]>(), c in any::<[u8;32]>()) {
            let (mut a, mut b, mut c) = (a, b, c);
            a[31] &= 0x7f; b[31] &= 0x7f; c[31] &= 0x7f;
            let (x, y, z) = (Fe::from_bytes(&a), Fe::from_bytes(&b), Fe::from_bytes(&c));
            prop_assert!(x.mul(y).mul(z).equals(x.mul(y.mul(z))));
        }
    }

    /// The field operations as they were before lazy reduction: every
    /// result fully carried by `reduce_limbs`, squaring as a plain `mul`,
    /// and exponentiation by generic square-and-multiply over a 256-bit
    /// exponent. The optimised operations must match them byte for byte.
    mod reference {
        use super::super::{Fe, MASK51};

        pub fn add(a: Fe, b: Fe) -> Fe {
            Fe([
                a.0[0] + b.0[0],
                a.0[1] + b.0[1],
                a.0[2] + b.0[2],
                a.0[3] + b.0[3],
                a.0[4] + b.0[4],
            ])
            .reduce_limbs()
        }

        pub fn sub(a: Fe, b: Fe) -> Fe {
            let two_p0 = 2 * (MASK51 - 18);
            let two_pi = 2 * MASK51;
            Fe([
                a.0[0] + two_p0 - b.0[0],
                a.0[1] + two_pi - b.0[1],
                a.0[2] + two_pi - b.0[2],
                a.0[3] + two_pi - b.0[3],
                a.0[4] + two_pi - b.0[4],
            ])
            .reduce_limbs()
        }

        pub fn mul(x: Fe, y: Fe) -> Fe {
            let a = &x.0;
            let b = &y.0;
            let b1_19 = b[1] * 19;
            let b2_19 = b[2] * 19;
            let b3_19 = b[3] * 19;
            let b4_19 = b[4] * 19;
            let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
            let r0 =
                m(a[0], b[0]) + m(a[1], b4_19) + m(a[2], b3_19) + m(a[3], b2_19) + m(a[4], b1_19);
            let mut r1 =
                m(a[0], b[1]) + m(a[1], b[0]) + m(a[2], b4_19) + m(a[3], b3_19) + m(a[4], b2_19);
            let mut r2 =
                m(a[0], b[2]) + m(a[1], b[1]) + m(a[2], b[0]) + m(a[3], b4_19) + m(a[4], b3_19);
            let mut r3 =
                m(a[0], b[3]) + m(a[1], b[2]) + m(a[2], b[1]) + m(a[3], b[0]) + m(a[4], b4_19);
            let mut r4 =
                m(a[0], b[4]) + m(a[1], b[3]) + m(a[2], b[2]) + m(a[3], b[1]) + m(a[4], b[0]);
            let mut t = [0u64; 5];
            let mut carry: u128;
            carry = r0 >> 51;
            t[0] = (r0 as u64) & MASK51;
            r1 += carry;
            carry = r1 >> 51;
            t[1] = (r1 as u64) & MASK51;
            r2 += carry;
            carry = r2 >> 51;
            t[2] = (r2 as u64) & MASK51;
            r3 += carry;
            carry = r3 >> 51;
            t[3] = (r3 as u64) & MASK51;
            r4 += carry;
            carry = r4 >> 51;
            t[4] = (r4 as u64) & MASK51;
            t[0] += (carry as u64) * 19;
            Fe(t).reduce_limbs()
        }

        pub fn square(x: Fe) -> Fe {
            mul(x, x)
        }

        /// `x^exp` for a 256-bit little-endian exponent.
        pub fn pow_bytes_le(x: Fe, exp: &[u8; 32]) -> Fe {
            let mut result = Fe::ONE;
            for bit in (0..256).rev() {
                result = square(result);
                if (exp[bit / 8] >> (bit % 8)) & 1 == 1 {
                    result = mul(result, x);
                }
            }
            result
        }

        /// `x^(p-2)`, p - 2 = 2^255 - 21.
        pub fn invert(x: Fe) -> Fe {
            let mut exp = [0xffu8; 32];
            exp[0] = 0xeb;
            exp[31] = 0x7f;
            pow_bytes_le(x, &exp)
        }

        /// `x^((p-5)/8)`, (p-5)/8 = 2^252 - 3.
        pub fn pow_p58(x: Fe) -> Fe {
            let mut exp = [0xffu8; 32];
            exp[0] = 0xfd;
            exp[31] = 0x0f;
            pow_bytes_le(x, &exp)
        }
    }

    /// 32-byte field inputs: uniform bytes (bit 255 is ignored on
    /// decoding), and one draw in four a non-canonical encoding `p + k`,
    /// `k < 19`, of a value in [p, 2^255).
    struct FieldBytes;

    impl Strategy for FieldBytes {
        type Value = [u8; 32];

        fn sample(&self, rng: &mut rand::rngs::StdRng) -> [u8; 32] {
            use rand::RngCore;
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut b);
            if b[0] & 3 == 0 {
                let k = b[1] % 19;
                let bit255 = b[31] & 0x80;
                b = [0xff; 32];
                b[0] = 0xed + k;
                b[31] = 0x7f | bit255;
            }
            b
        }
    }

    /// Fails unless `lazy` keeps the documented limb bound and encodes to
    /// the same bytes as the fully reduced `reference` result.
    fn same(op: &str, lazy: Fe, reference: Fe) -> Result<(), TestCaseError> {
        prop_assert!(
            lazy.0.iter().all(|&l| l < LIMB_BOUND),
            "{op}: limb bound broken: {lazy:?}"
        );
        prop_assert_eq!(lazy.to_bytes(), reference.to_bytes());
        Ok(())
    }

    /// Every binary and unary operation on a pair of values, lazy against
    /// reference.
    fn ops_match(x: Fe, y: Fe) -> Result<(), TestCaseError> {
        same("add", x.add(y), reference::add(x, y))?;
        same("sub", x.sub(y), reference::sub(x, y))?;
        same("sub", y.sub(x), reference::sub(y, x))?;
        same("neg", x.neg(), reference::sub(Fe::ZERO, x))?;
        same("mul", x.mul(y), reference::mul(x, y))?;
        same("square", x.square(), reference::square(x))?;
        for k in [121_665, u32::MAX] {
            same(
                "mul_small",
                x.mul_small(k),
                reference::mul(x, Fe::from_u64(u64::from(k))),
            )?;
        }
        Ok(())
    }

    #[test]
    fn ops_at_the_limb_bound_match_reference() {
        // The widest limbs any operation may be handed, against themselves
        // and against small and fully reduced values.
        let top = Fe([LIMB_BOUND - 1; 5]);
        for other in [top, Fe::ZERO, Fe::ONE, Fe([MASK51; 5]), Fe::SQRT_M1] {
            ops_match(top, other).unwrap();
            ops_match(other, top).unwrap();
        }
        same("invert", top.invert(), reference::invert(top)).unwrap();
        same("pow_p58", top.pow_p58(), reference::pow_p58(top)).unwrap();
    }

    proptest! {
        #[test]
        fn prop_ops_match_reference(a in FieldBytes, b in FieldBytes) {
            ops_match(Fe::from_bytes(&a), Fe::from_bytes(&b))?;
        }

        #[test]
        fn prop_invert_and_pow_p58_match_reference(a in FieldBytes) {
            let x = Fe::from_bytes(&a);
            same("invert", x.invert(), reference::invert(x))?;
            same("pow_p58", x.pow_p58(), reference::pow_p58(x))?;
        }

        #[test]
        fn prop_op_chains_match_reference(a in FieldBytes, b in FieldBytes, ops in any::<[u8; 32]>()) {
            // Lazily reduced results fed straight back in, as the ladder
            // and the Edwards formulas do: limbs must stay in bound and
            // values equal to the reference at every step.
            let (mut x, mut y) = (Fe::from_bytes(&a), Fe::from_bytes(&b));
            let (mut rx, mut ry) = (x, y);
            for op in ops {
                let (next, rnext) = match op % 6 {
                    0 => (x.add(y), reference::add(rx, ry)),
                    1 => (x.sub(y), reference::sub(rx, ry)),
                    2 => (x.mul(y), reference::mul(rx, ry)),
                    3 => (x.square(), reference::square(rx)),
                    4 => (x.mul_small(121_665), reference::mul(rx, Fe::from_u64(121_665))),
                    _ => (x.neg(), reference::sub(Fe::ZERO, rx)),
                };
                same("chain", next, rnext)?;
                (x, y, rx, ry) = (next, x, rnext, rx);
            }
        }
    }
}
