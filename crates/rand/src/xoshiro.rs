//! The xoshiro256++ generator (Blackman & Vigna, 2019) with SplitMix64 seed expansion — the
//! deterministic core behind [`crate::rngs::StdRng`].

/// SplitMix64 step: advances `state` and returns the next output. Used to expand a single
/// 64-bit seed into the 256-bit xoshiro state, exactly as the xoshiro authors recommend.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The characteristic polynomial `P(x) = x^256 + Σ p_i x^i` of the xoshiro256 state map,
/// which is linear over GF(2): bit `i % 64` of word `i / 64` is `p_i`, and the `x^256` term is
/// implicit. By Cayley–Hamilton `P(T) = 0`, so `T^n = (x^n mod P)(T)` for every `n`; the test
/// `char_poly_matches_berlekamp_massey` re-derives these words from the generator itself.
const CHAR_POLY: [u64; 4] =
    [0x9D11_6F2B_B0F0_F001, 0x0280_002B_CEFD_1A5E, 0x04B4_EDCF_2625_9F85, 0x0003_C03C_3F3E_CB19];

/// xoshiro256++ state. All-zero state is unreachable via SplitMix64 expansion.
#[derive(Clone, Debug)]
pub(crate) struct Xoshiro256PlusPlus {
    s: [u64; 4],
}

impl Xoshiro256PlusPlus {
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { s }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Moves the state exactly `draws` steps ahead, as `draws` calls of [`Self::next_u64`]
    /// would. This is the reference `jump()` of Blackman & Vigna with the jump polynomial
    /// computed, `x^draws mod P`, instead of tabled: the new state is `Σ r_i T^i s` over the
    /// polynomial's set bits `i`, gathered in 256 generator steps.
    pub(crate) fn advance(&mut self, draws: u64) {
        let poly = jump_polynomial(draws);
        let mut acc = [0u64; 4];
        for word in poly {
            for bit in 0..64 {
                if word >> bit & 1 == 1 {
                    for (a, s) in acc.iter_mut().zip(self.s) {
                        *a ^= s;
                    }
                }
                self.next_u64();
            }
        }
        self.s = acc;
    }
}

/// `x^n mod P(x)` over GF(2), by square-and-multiply from the top bit of `n`: about `log2 n`
/// squarings of 256-bit polynomials.
fn jump_polynomial(n: u64) -> [u64; 4] {
    let mut r = [1, 0, 0, 0];
    for bit in (0..u64::BITS - n.leading_zeros()).rev() {
        r = square_mod(&r);
        if n >> bit & 1 == 1 {
            r = times_x_mod(&r);
        }
    }
    r
}

/// `r(x)^2 mod P(x)`. Over GF(2) squaring only spreads the bits (`x^i → x^2i`); the 512-bit
/// square is then reduced from its top bit down, each `x^(256 + s)` becoming `x^s · (P − x^256)`.
fn square_mod(r: &[u64; 4]) -> [u64; 4] {
    let mut wide = [0u64; 8];
    for (i, &word) in r.iter().enumerate() {
        wide[2 * i] = spread_bits(word as u32);
        wide[2 * i + 1] = spread_bits((word >> 32) as u32);
    }
    for top in (4..8).rev() {
        // Clearing the highest set bit can set lower bits of the same word; loop until none.
        while wide[top] != 0 {
            let bit = top * 64 + 63 - wide[top].leading_zeros() as usize;
            wide[top] ^= 1 << (bit % 64);
            let (word, shift) = ((bit - 256) / 64, (bit - 256) % 64);
            for (i, &p) in CHAR_POLY.iter().enumerate() {
                wide[word + i] ^= p << shift;
                if shift != 0 {
                    wide[word + i + 1] ^= p >> (64 - shift);
                }
            }
        }
    }
    [wide[0], wide[1], wide[2], wide[3]]
}

/// `x · r(x) mod P(x)`: a one-bit shift, folding a carried-out `x^256` back in as `P − x^256`.
fn times_x_mod(r: &[u64; 4]) -> [u64; 4] {
    let carry = r[3] >> 63;
    let mut out =
        [r[0] << 1, r[1] << 1 | r[0] >> 63, r[2] << 1 | r[1] >> 63, r[3] << 1 | r[2] >> 63];
    if carry == 1 {
        for (o, p) in out.iter_mut().zip(CHAR_POLY) {
            *o ^= p;
        }
    }
    out
}

/// Interleaves zeros between the bits of `x`: bit `i` moves to bit `2i`.
fn spread_bits(x: u32) -> u64 {
    let mut x = u64::from(x);
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain SplitMix64 C source.
        let mut state = 1234567u64;
        let expected = [
            6_457_827_717_110_365_317u64,
            3_203_168_211_198_807_973,
            9_817_491_932_198_370_423,
            4_593_380_528_125_082_431,
            16_408_922_859_458_223_821,
        ];
        for &want in &expected {
            assert_eq!(splitmix64(&mut state), want);
        }
    }

    #[test]
    fn advance_matches_repeated_next_u64() {
        for n in [0u64, 1, 2, 63, 64, 255, 256, 257, 65_537, 1_000_003] {
            let mut stepped = Xoshiro256PlusPlus::seed_from_u64(n ^ 0x5EED);
            let mut jumped = stepped.clone();
            for _ in 0..n {
                stepped.next_u64();
            }
            jumped.advance(n);
            assert_eq!(jumped.s, stepped.s, "advance({n})");
        }
    }

    #[test]
    fn advances_compose_near_two_to_the_62() {
        let base = 1u64 << 62;
        for (a, b) in [(base, base - 1), (base + 12_345, base - 7), (base - 1, base + 1)] {
            let mut twice = Xoshiro256PlusPlus::seed_from_u64(a ^ b);
            let mut once = twice.clone();
            twice.advance(a);
            twice.advance(b);
            once.advance(a + b);
            assert_eq!(twice.s, once.s, "advance({a}) + advance({b})");
        }
    }

    /// The connection polynomial `c_0 + c_1 x + … + c_L x^L` (`c_0 = 1`) of the shortest
    /// linear recurrence generating `bits`, by Berlekamp–Massey over GF(2).
    fn berlekamp_massey(bits: &[bool]) -> Vec<bool> {
        let mut c = vec![false; bits.len() + 1];
        c[0] = true;
        let mut b = c.clone();
        // `len` is the current recurrence length; `shift` counts the steps since it last grew.
        let (mut len, mut shift) = (0usize, 1usize);
        for i in 0..bits.len() {
            let discrepancy = (1..=len).fold(bits[i], |d, j| d ^ (c[j] & bits[i - j]));
            if !discrepancy {
                shift += 1;
                continue;
            }
            let previous = c.clone();
            for j in 0..c.len() - shift {
                c[j + shift] ^= b[j];
            }
            if 2 * len <= i {
                len = i + 1 - len;
                b = previous;
                shift = 1;
            } else {
                shift += 1;
            }
        }
        c.truncate(len + 1);
        c
    }

    #[test]
    fn char_poly_matches_berlekamp_massey() {
        // One state bit satisfies the state map's linear recurrence, whose characteristic
        // polynomial has degree 256; 512 terms determine it.
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(99);
        let bits: Vec<bool> = (0..512)
            .map(|_| {
                let bit = rng.s[0] & 1 == 1;
                rng.next_u64();
                bit
            })
            .collect();
        let connection = berlekamp_massey(&bits);
        assert_eq!(connection.len(), 257, "the recurrence has degree 256");
        // P(x) = x^256 · C(1/x): the coefficient of x^i is c_(256 - i).
        let mut words = [0u64; 4];
        for i in 0..256 {
            if connection[256 - i] {
                words[i / 64] |= 1 << (i % 64);
            }
        }
        assert_eq!(words, CHAR_POLY);
    }

    #[test]
    fn squaring_reproduces_the_published_jump_polynomial() {
        // The reference `jump()` advances 2^128 steps with a tabled polynomial; 128 squarings
        // of `x` must land on the same four words.
        let mut r = [2, 0, 0, 0];
        for _ in 0..128 {
            r = square_mod(&r);
        }
        let published = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        assert_eq!(r, published);
    }

    #[test]
    fn xoshiro_produces_distinct_nonzero_words() {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1_000 {
            seen.insert(rng.next_u64());
        }
        assert_eq!(seen.len(), 1_000);
    }
}
