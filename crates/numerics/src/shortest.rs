//! Shortest round-trip decimal digits of an `f64`: the Ryū algorithm
//! (Adams, PLDI 2018) on 128-bit multiplies against a committed
//! power-of-five table.
//!
//! [`shortest`] returns `(digits, exp10)` with `|v| = digits × 10^exp10`,
//! where `digits` is the shortest decimal that parses back to `v`. When
//! two candidates of that length both do, the one closer to `v` wins and
//! an exact tie rounds up — the rule `core::fmt` follows (Ryū's reference
//! rounds ties to even; that branch is left out here), so the digits are
//! the ones `format!("{v:e}")` prints.
//!
//! The two tables are public so that a test can rebuild them with exact
//! big-integer arithmetic.

/// Bit widths of the two table halves (Ryū's `DOUBLE_POW5_INV_BITCOUNT`
/// and `DOUBLE_POW5_BITCOUNT`).
const POW5_INV_BITS: i32 = 125;
const POW5_BITS: i32 = 125;

/// `(digits, exp10)` of the shortest round-trip decimal of `|v|`, with
/// `(0, 0)` for ±0. `v` must be finite.
pub fn shortest(v: f64) -> (u64, i32) {
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = ((bits >> 52) & 0x7ff) as i32;
    debug_assert!(ieee_exponent != 0x7ff, "shortest() takes finite values");
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        return (0, 0);
    }
    // v = m2 × 2^(e2 + 2); the two extra bits leave room for the
    // half-way bounds mv ± 2 (mv - 1 below a power of two).
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (ieee_exponent - 1023 - 52 - 2, (1 << 52) | ieee_mantissa)
    };
    // Round-half-even parsing maps the bounds themselves to `v` when its
    // mantissa is even.
    let accept_bounds = m2 & 1 == 0;
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mp, mm) = (mv + 2, mv - 1 - mm_shift);

    // Scale v and its bounds [mm, mp] by 10^-e10 into 64-bit integers
    // (truncating), noting when the scaled lower bound is exact.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let k = POW5_INV_BITS + pow5_bits(q) - 1;
        let shift = -e2 + q + k;
        let mul = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        // At most one of mp, mv and mm is a multiple of 5; only an exact
        // bound needs handling (an exact v rounds like any other).
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let shift = q - (pow5_bits(i) - POW5_BITS);
        let mul = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mp, mul, shift);
        vm = mul_shift(mm, mul, shift);
        if q <= 1 {
            // The bounds are exact when they have q trailing zero bits:
            // mp = mv + 2 always has one, mm has one when mm_shift is 1.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // The lower bound is an exact, admissible decimal (rare): keep
        // dropping its zero digits too.
        let mut last_removed = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_is_trailing_zeros) || last_removed >= 5)
    } else {
        // The lower bound is inexact. Removing k digits keeps a decimal
        // in the interval while vp / 10^k > vm / 10^k, so strip 8 at a
        // time, then 4, 2 and 1; the last digit removed decides rounding.
        let mut round_up = false;
        while vp / 100_000_000 > vm / 100_000_000 {
            round_up = vr % 100_000_000 >= 50_000_000;
            vr /= 100_000_000;
            vp /= 100_000_000;
            vm /= 100_000_000;
            removed += 8;
        }
        for (k, p) in [(4, 10_000), (2, 100), (1, 10)] {
            if vp / p > vm / p {
                round_up = vr % p >= p / 2;
                vr /= p;
                vp /= p;
                vm /= p;
                removed += k;
            }
        }
        // vr == vm: the truncated v fell out of the interval.
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `floor((m × mul) / 2^shift)` for `m < 2^57` and `64 < shift < 128`.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let m = u128::from(m);
    let lo = m * u128::from(mul as u64);
    let hi = m * (mul >> 64);
    (((lo >> 64) + hi) >> (shift - 64)) as u64
}

/// `ceil(log2(5^e))` (1 for `e = 0`), exact for `0 <= e <= 3528`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))`, exact for `0 <= e <= 1650`.
fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// `floor(log10(5^e))`, exact for `0 <= e <= 2620`.
fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

fn multiple_of_pow5(mut value: u64, p: i32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `POW5_INV_SPLIT[q] = floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1`, the
/// reciprocal of `5^q` scaled to 125–126 bits, for binary exponents
/// `e2 >= 0`.
pub const POW5_INV_SPLIT: [u128; 291] = [
    0x20000000000000000000000000000001,
    0x1999999999999999999999999999999a,
    0x147ae147ae147ae147ae147ae147ae15,
    0x10624dd2f1a9fbe76c8b4395810624de,
    0x1a36e2eb1c432ca57a786c226809d496,
    0x14f8b588e368f08461f9f01b866e43ab,
    0x10c6f7a0b5ed8d36b4c7f34938583622,
    0x1ad7f29abcaf485787a6520ec08d236a,
    0x15798ee2308c39df9fb841a566d74f88,
    0x112e0be826d694b2e62d01511f12a607,
    0x1b7cdfd9d7bdbab7d6ae6881cb5109a4,
    0x15fd7fe17964955fdef1ed34a2a73aea,
    0x119799812dea11197f27f0f6e885c8bb,
    0x1c25c268497681c2650cb4be40d60df8,
    0x16849b86a12b9b01ea70909833de7193,
    0x1203af9ee756159b21f3a6e0297ec143,
    0x1cd2b297d889bc2b6985d7cd0f313537,
    0x170ef54646d496892137dfd73f5a90f9,
    0x12725dd1d243aba0e75fe645cc4873fa,
    0x1d83c94fb6d2ac34a5663d3c7a0d865d,
    0x179ca10c9242235d511e976394d79eb1,
    0x12e3b40a0e9b4f7dda7edf82dd794bc1,
    0x1e392010175ee5962a6498d1625bac68,
    0x182db34012b25144eeb6e0a781e2f053,
    0x1357c299a88ea76a58924d52ce4f26a9,
    0x1ef2d0f5da7dd8aa27507bb7b07ea441,
    0x18c240c4aecb13bb52a6c95fc0655034,
    0x13ce9a36f23c0fc90eebd44c99eaa690,
    0x1fb0f6be50601941b17953adc3110a80,
    0x195a5efea6b34767c12ddc8b02740867,
    0x14484bfeebc29f863424b06f3529a052,
    0x1039d66589687f9e901d59f290ee19db,
    0x19f623d5a8a732974cfbc31db4b0295f,
    0x14c4e977ba1f5bac3d9635b15d59bab2,
    0x109d8792fb4c495697ab5e277de16228,
    0x1a95a5b7f87a0ef0f2abc9d8c9689d0d,
    0x154484932d2e725a5bbca17a3aba173e,
    0x11039d428a8b8eaeafca1ac82efb45cb,
    0x1b38fb9daa78e44ab2dcf7a6b1920945,
    0x15c72fb1552d836ef57d92ebc141a104,
    0x116c262777579c58c46475896767b403,
    0x1be03d0bf225c6f46d6d88dbd8a5ecd2,
    0x164cfda3281e38c38abe071646eb23db,
    0x11d7314f534b609c6efe6c11d255b649,
    0x1c8b821885456760b197134fb6ef8a0e,
    0x16d601ad376ab91a27ac0f72f8bfa1a5,
    0x1244ce242c5560e1b95672c260994e1e,
    0x1d3ae36d13bbce35f5571e03cdc21695,
    0x17624f8a762fd82b2aac18030b01abab,
    0x12b50c6ec4f31355bbbce0026f348956,
    0x1dee7a4ad4b81eef92c7ccd0b1eda889,
    0x17f1fb6f10934bf2dbd30a408e57ba07,
    0x1327fc58da0f6ff57ca8d50071dfc806,
    0x1ea6608e29b24cbbfaa7bb33e9660cd6,
    0x18851a0b548ea3c99552fc298784d711,
    0x139dae6f76d88307aaa8c9bad2d0ac0e,
    0x1f62b0b257c0d1a5dddadc5e1e1aace3,
    0x191bc08eac9a41517e48b04b4b488a4f,
    0x141633a556e1cddacb6d59d5d5d3a1d9,
    0x1011c2eaabe7d7e23c577b1177dc817b,
    0x19b604aaaca62636c6f25e825960cf2a,
    0x14919d5556eb51c56bf518684780a5bb,
    0x10747ddddf22a7d1232a79ed06008496,
    0x1a53fc9631d10c81d1dd8fe1a3340756,
    0x150ffd44f4a73d34a7e4731ae8f66c45,
    0x10d9976a5d52975d531d28e253f8569e,
    0x1af5bf109550f22eeb61db03b98d5762,
    0x159165a6ddda5b58bc4e48cfc7a445e8,
    0x11411e1f17e1e2ad6371d3d96c836b20,
    0x1b9b6364f30304489f1c8628ad9f11cd,
    0x1615e91d8f359d06e5b06b53be18db0b,
    0x11ab20e472914a6beaf3890fcb4715a2,
    0x1c45016d841baa4644b8db4c7871bc37,
    0x169d9abe0349550503c715d6c6c1635f,
    0x1217aefe690777373638de456bcde919,
    0x1cf2b1970e72585856c163a2461641c1,
    0x17288e1271f51379df011c81d1ab67ce,
    0x1286d80ec190dc617f3416ce4155eca5,
    0x1da48ce468e7c7026520247d3556476e,
    0x17b6d71d20b96c01ea801d30f7783925,
    0x12f8ac174d612334bb99b0f3f92cfa84,
    0x1e5aacf2156838545f5c4e532847f739,
    0x18488a5b445360437f7d0b75b9d32c2e,
    0x136d3b7c36a919cf9930d5f7c7dc2358,
    0x1f152bf9f10e8fb28eb4898c72f9d226,
    0x18ddbcc7f40ba628722a07a38f2e41b8,
    0x13e497065cd61e86c1bb394fa5be9afa,
    0x1fd424d6faf030d79c5ec2190930f7f6,
    0x197683df2f268d7949e56814075a5ff8,
    0x145ecfe5bf520ac76e51201005e1e660,
    0x104bd984990e6f05f1da800cd181851a,
    0x1a12f5a0f4e3e4d64fc400148268d4f5,
    0x14dbf7b3f71cb711d96999aa01ed772b,
    0x10aff95cc5b09274adee1488018ac5bc,
    0x1ab328946f80ea54497ceda668de092c,
    0x155c2076bf9a55103aca57b853e4d424,
    0x1116805effaeaa73623b7960431d7683,
    0x1b5733cb32b110b89d2bf566d1c8bd9e,
    0x15df5ca28ef40d607dbcc452416d647f,
    0x117f7d4ed8c33de6cafd69db678ab6cc,
    0x1bff2ee48e052fd7ab2f0fc572778adf,
    0x1665bf1d3e6a8cac88f273045b92d580,
    0x11eaff4a98553d56d3f528d049424466,
    0x1cab3210f3bb9557b988414d4203a0a3,
    0x16ef5b40c2fc77796139cdd76802e6e9,
    0x125915cd68c9f92de761717920025254,
    0x1d5b561574765b7ca568b58e999d5086,
    0x177c44ddf6c515fd5120913ee14aa6d2,
    0x12c9d0b1923744caa74d40ff1aa21f0e,
    0x1e0fb44f50586e110baece64f769cb4a,
    0x180c903f7379f1a73c8bd850c5ee3c3b,
    0x133d4032c2c7f485ca0979da37f1c9c9,
    0x1ec866b79e0cba6fa9a8c2f6bfe942db,
    0x18a0522c7e7095262153cf2bccba9be3,
    0x13b374f06526ddb81aa9728970954982,
    0x1f8587e7083e2f8cf775840f1a88759d,
    0x19379fec0698260a5f9136727ba05e17,
    0x142c7ff0054684d51940f85b9619e4df,
    0x1023998cd1053710e100c6afab47ea4c,
    0x19d28f47b4d524e7ce67a44c453fdd47,
    0x14a8729fc3ddb71fd852e9d69dccb106,
    0x1086c219697e2c1979dbee454b0a2738,
    0x1a71368f0f30468f295fe3a211a9d859,
    0x15275ed8d8f36ba5bab31c81a7bb137a,
    0x10ec4be0ad8f89516228e39aec95a92f,
    0x1b13ac9aaf4c0ee89d0e38f7e0ef7517,
    0x15a956e225d67253b0d82d931a592a79,
    0x11544581b7dec1dc8d79be0f4847552e,
    0x1bba08cf8c979c94158f967eda0bbb7c,
    0x162e6d72d6dfb07677a611ff14d62f97,
    0x11bebdf578b2f391f951a7ff43de8c79,
    0x1c6463225ab7ec1cc21c3ffed2fdad8e,
    0x16b6b5b5155ff01701b0333242648ad8,
    0x122bc490dde659ac0159c28e9b83a246,
    0x1d12d41afca3c2accef604175f3903a3,
    0x17424348ca1c9bbd725e69ac4c2d9c83,
    0x129b69070816e2fdf5185489d68ae39c,
    0x1dc574d80cf16b2fee8d540fbdab05c6,
    0x17d12a4670c1228cbed77672fe226b05,
    0x130dbb6b8d674ed6ff12c528cb4ebc04,
    0x1e7c5f127bd87e24cb513b74787df9a0,
    0x18637f41fcad31b7090dc929f9fe614d,
    0x1382cc34ca2427c5a0d7d42194cb810a,
    0x1f37ad21436d0c6f67bfb9cf5478ce77,
    0x18f9574dcf8a70591fcc94a5dd2d71f9,
    0x13faac3e3fa1f37a7fd6dd517dbdf4c7,
    0x1ff779fd329cb8c3ffbe2ee8c92fee0b,
    0x1992c7fdc216fa366631bf20a0f324d6,
    0x14756ccb01abfb5eb827cc1a1a5c1d78,
    0x105df0a267bcc918935309ae7b7ce460,
    0x1a2fe76a3f9474f41eeb42b0c594a099,
    0x14f31f8832dd2a5ce58902270476e6e1,
    0x10c27fa028b0eeb0b7a0ce859d2bebe7,
    0x1ad0cc33744e4ab459014a6f61dfdfd8,
    0x1573d68f903ea229e0cdd525e7e64cad,
    0x11297872d9cbb4ee4d7177518651d6f1,
    0x1b758d848fac54b07be8bee8d6e957e8,
    0x15f7a46a0c89dd59fcba3253df211320,
    0x1192e9ee706e4aae63c8284318e74280,
    0x1c1e43171a4a1117060d0d3827d86a66,
    0x167e9c127b6e74126b3da42cecad21eb,
    0x11fee341fc585cdb88fe1cf0bd574e56,
    0x1ccb0536608d615f419694b462254a23,
    0x1708d0f84d3de77f67abaa29e81dd4e9,
    0x126d73f9d764b932b95621bb2017dd87,
    0x1d7becc2f23ac1eac223692b668c95a5,
    0x179657025b6234bbce82ba891ed6de1d,
    0x12deac01e2b4f6fca53562074bdf1818,
    0x1e3113363787f1943b889cd87964f359,
    0x18274291c6065adcfc6d4a46c783f5e1,
    0x13529ba7d19eaf1730576e9f06032b1a,
    0x1eea92a61c3118251a257dcb3cd1de90,
    0x18bba884e35a79b7481dfe3c30a7e540,
    0x13c9539d82aec7c5d34b31c9c0865100,
    0x1fa885c8d117a6095211e942cda3b4cd,
    0x19539e3a40dfb80774db21023e1c90a4,
    0x1442e4fb67196005f715b401cb4a0d50,
    0x103583fc527ab337f8de299b09080aa7,
    0x19ef3993b72ab8598e304291a80cddd7,
    0x14bf6142f8eef9e13e8d020e200a4b13,
    0x10991a9bfa58c7e7653d9b3e80083c0f,
    0x1a8e90f9908e0ca56ec8f864000d2ce4,
    0x153eda614071a3b78bd3f9e999a423ea,
    0x10ff151a99f482f93ca994bae1501cbb,
    0x1b31bb5dc320d18ec775bac49bb3612b,
    0x15c162b168e70e0bd2c4956a16291a89,
    0x11678227871f3e6fdbd0778811ba7ba1,
    0x1bd8d03f3e9863e62c80bf401c5d929b,
    0x16470cff6546b651bd33cc3349e47549,
    0x11d270cc51055ea7ca8fd68f6e505dd4,
    0x1c83e7ad4e6efdd94419574be3b3c953,
    0x16cfec8aa52597e10347790982f63aa9,
    0x123ff06eea847980cf6c60d468c4fbba,
    0x1d331a4b10d3f59ae57a34870e07f92a,
    0x175c1508da432ae2512e906c0b399422,
    0x12b010d3e1cf5581da8ba6bcd5c7a9b5,
    0x1de6815302e5559c90df712e22d90f87,
    0x17eb9aa8cf1dde16da4c5a8b4f140c6c,
    0x1322e220a5b17e78aea37ba2a5a9a38a,
    0x1e9e369aa2b597277dd25f6aa2a905a9,
    0x187e92154ef7ac1f97db7f888220d154,
    0x139874ddd8c6234c797c6606ce80a777,
    0x1f5a549627a36bad8f2d700ae4010bf1,
    0x191510781fb5efbe0c2459a25000d65a,
    0x1410d9f9b2f7f2fe701d1481d99a4515,
    0x100d7b2e28c65bfec017439b147b6a77,
    0x19af2b7d0e0a2ccaccf205c4ed9243f2,
    0x148c22ca71a1bd6f0a5b37d0be0e9cc2,
    0x10701bd527b4978c0848f973cb3ee3ce,
    0x1a4cf9550c5425acda0e5bec78649fb0,
    0x150a6110d6a9b7bd7b3eaff060507fc0,
    0x10d51a73deee2c9795cbbff380406633,
    0x1aee90b964b04758efac665266cd7052,
    0x158ba6fab6f36c472623850eb8a459db,
    0x113c85955f29236c1e82d0d893b6ae49,
    0x1b9408eefea838acfd9e1af41f8ab075,
    0x16100725988693bd97b1af29b2d559f7,
    0x11a66c1e139edc97ac8e25baf5777b2c,
    0x1c3d79c9b8fe2dbf7a7d092b2258c513,
    0x169794a160cb57cc61fda0ef4ead6a76,
    0x1212dd4de7091309e7fe1a590bbdeec5,
    0x1ceafbafd80e84dca6635d5b45fcb13a,
    0x172262f3133ed0b0851c4aaf6b308dc8,
    0x1281e8c275cbda26d0e36ef2bc26d7d4,
    0x1d9ca79d894629d7b49f17eac6a48c86,
    0x17b08617a104ee462a18dfef0550706b,
    0x12f39e794d9d8b6b54e0b3259dd9f389,
    0x1e5297287c2f457887cdeb6f62f65274,
    0x18421286c9bf6ac6d30b22bf825ea85d,
    0x13680ed23aff889f0f3c1bcc684bb9e4,
    0x1f0ce4839198da9818602c7a4079296d,
    0x18d71d360e13e21346b356c833942124,
    0x13df4a91a4dcb4dc388f78a029434db6,
    0x1fcbaa82a16121605a7f2766a86baf8a,
    0x196fbb9bb44db44d153285ebb9efbfa2,
    0x145962e2f6a4903daa8ed189618c994e,
    0x1047824f2bb6d9caeed8a7a11ad6e10c,
    0x1a0c03b1df8af6117e27729b5e249b45,
    0x14d6695b193bf80dfe85f549181d4904,
    0x10ab877c142ff9a4cb9e5dd4134aa0d0,
    0x1aac0bf9b9e65c3adf63c9535211014d,
    0x15566ffafb1eb02f191ca10f74da6771,
    0x1111f32f2f4bc025adb080d92a4852c1,
    0x1b4feb7eb212cd0915e7348eaa0d5134,
    0x15d98932280f0a6dab1f5d3eee710dc4,
    0x117ad428200c0857bc1917658b8da49d,
    0x1bf7b9d9cce00d592cf4f23c127c3a94,
    0x165fc7e170b33de0f0c3f4fcdb969543,
    0x11e6398126f5cb1a5a365d9716121103,
    0x1ca38f350b22de909056fc24f01ce804,
    0x16e93f5da2824ba6d9df301d8ce3ecd0,
    0x125432b14ecea2ebe17f59b13d8323da,
    0x1d53844ee47dd17968cbc2b52f38395c,
    0x177603725064a79453d6355dbf602de3,
    0x12c4cf8ea6b6ec76a9782ab165e68b1c,
    0x1e07b27dd78b13f10f26aab56fd744fa,
    0x18062864ac6f43273f52222abfdf6a62,
    0x1338205089f29c1f65db4e88997f884e,
    0x1ec033b40fea93656fc54a7428cc0d4a,
    0x1899c2f673220f84596aa1f68709a43b,
    0x13ae3591f5b4d936adeee7f86c07b696,
    0x1f7d228322baf524497e3ff3e00c5756,
    0x1930e868e89590e9d464fff64cd6ac45,
    0x14272053ed4473ee4383fff83d7889d1,
    0x101f4d0ff1038ff1cf9cccc69793a174,
    0x19cbae7fe805b31c7f6147a425b90252,
    0x14a2f1ffecd15c16cc4dd2e9b7c7350f,
    0x10825b3323dab0123d0b0f215fd290d9,
    0x1a6a2b85062ab35061ab4b689950e7c1,
    0x1521bc6a6b555c404e22a2ba1440b967,
    0x10e7c9eebc4449cd0b4ee894dd009453,
    0x1b0c764ac6d3a9481217da87c800ed51,
    0x15a391d56bdc876cdb46486ca000bdda,
    0x114fa7ddefe39f8a490506bd4ccd64af,
    0x1bb2a62fe638ff43a8080ac87ae23ab1,
    0x162884f31e93ff695339a239fbe82ef4,
    0x11ba03f5b20fff8775c7b4fb2fecf25d,
    0x1c5cd322b67fff3f22d92191e647ea2e,
    0x16b0a8e891ffff65b57a8141850654f2,
    0x1226ed86db3332b7c4620101373843f5,
    0x1d0b15a491eb84593a366801f1f39fee,
    0x173c115074bc69e0fb5eb99b27f6198b,
    0x129674405d6387e72f7efae2865e7ad6,
    0x1dbd86cd6238d971e597f7d0d6fd9156,
    0x17cad23de82d7ac18479930d78cadaab,
    0x1308a831868ac89ad06142712d6f1556,
    0x1e74404f3daada914d686a4eaf182222,
    0x185d003f6488aedaa453883ef279b4e8,
    0x137d99cc506d58aee9dc6cff28615d87,
    0x1f2f5c7a1a488de4a960ae650d6895a4,
    0x18f2b061aea07183bab3beb73ded4483,
];

/// `POW5_SPLIT[i] = floor(5^i / 2^(bitlen(5^i) - 125))`: the top 125 bits
/// of `5^i` (shifted left when it has fewer), for binary exponents
/// `e2 < 0`.
pub const POW5_SPLIT: [u128; 326] = [
    0x10000000000000000000000000000000,
    0x14000000000000000000000000000000,
    0x19000000000000000000000000000000,
    0x1f400000000000000000000000000000,
    0x13880000000000000000000000000000,
    0x186a0000000000000000000000000000,
    0x1e848000000000000000000000000000,
    0x1312d000000000000000000000000000,
    0x17d78400000000000000000000000000,
    0x1dcd6500000000000000000000000000,
    0x12a05f20000000000000000000000000,
    0x174876e8000000000000000000000000,
    0x1d1a94a2000000000000000000000000,
    0x12309ce5400000000000000000000000,
    0x16bcc41e900000000000000000000000,
    0x1c6bf526340000000000000000000000,
    0x11c37937e08000000000000000000000,
    0x16345785d8a000000000000000000000,
    0x1bc16d674ec800000000000000000000,
    0x1158e460913d00000000000000000000,
    0x15af1d78b58c40000000000000000000,
    0x1b1ae4d6e2ef50000000000000000000,
    0x10f0cf064dd592000000000000000000,
    0x152d02c7e14af6800000000000000000,
    0x1a784379d99db4200000000000000000,
    0x108b2a2c280290940000000000000000,
    0x14adf4b7320334b90000000000000000,
    0x19d971e4fe8401e74000000000000000,
    0x1027e72f1f1281308800000000000000,
    0x1431e0fae6d7217caa00000000000000,
    0x193e5939a08ce9dbd480000000000000,
    0x1f8def8808b02452c9a0000000000000,
    0x13b8b5b5056e16b3be04000000000000,
    0x18a6e32246c99c60ad85000000000000,
    0x1ed09bead87c0378d8e6400000000000,
    0x13426172c74d822b878fe80000000000,
    0x1812f9cf7920e2b66973e20000000000,
    0x1e17b84357691b6403d0da8000000000,
    0x12ced32a16a1b11e8262889000000000,
    0x178287f49c4a1d6622fb2ab400000000,
    0x1d6329f1c35ca4bfabb9f56100000000,
    0x125dfa371a19e6f7cb54395ca0000000,
    0x16f578c4e0a060b5be2947b3c8000000,
    0x1cb2d6f618c878e32db399a0ba000000,
    0x11efc659cf7d4b8dfc90400474400000,
    0x166bb7f0435c9e717bb4500591500000,
    0x1c06a5ec5433c60ddaa16406f5a40000,
    0x118427b3b4a05bc8a8a4de8459868000,
    0x15e531a0a1c872bad2ce16256fe82000,
    0x1b5e7e08ca3a8f6987819baecbe22800,
    0x111b0ec57e6499a1f4b1014d3f6d5900,
    0x1561d276ddfdc00a71dd41a08f48af40,
    0x1aba4714957d300d0e549208b31adb10,
    0x10b46c6cdd6e3e0828f4db456ff0c8ea,
    0x14e1878814c9cd8a33321216cbecfb24,
    0x1a19e96a19fc40ecbffe969c7ee839ed,
    0x105031e2503da893f7ff1e21cf512434,
    0x14643e5ae44d12b8f5fee5aa43256d41,
    0x197d4df19d605767337e9f14d3eec892,
    0x1fdca16e04b86d41005e46da08ea7ab6,
    0x13e9e4e4c2f34448a03aec4845928cb2,
    0x18e45e1df3b0155ac849a75a56f72fde,
    0x1f1d75a5709c1ab17a5c1130ecb4fbd6,
    0x13726987666190aeec798abe93f11d65,
    0x184f03e93ff9f4daa797ed6e38ed64bf,
    0x1e62c4e38ff87211517de8c9c728bdef,
    0x12fdbb0e39fb474ad2eeb17e1c7976b5,
    0x17bd29d1c87a191d87aa5ddda397d462,
    0x1dac74463a989f64e994f5550c7dc97b,
    0x128bc8abe49f639f11fd195527ce9ded,
    0x172ebad6ddc73c86d67c5faa71c24568,
    0x1cfa698c95390ba88c1b77950e32d6c2,
    0x121c81f7dd43a74957912abd28dfc639,
    0x16a3a275d494911bad75756c7317b7c8,
    0x1c4c8b1349b9b56298d2d2c78fdda5ba,
    0x11afd6ec0e14115d9f83c3bcb9ea8794,
    0x161bcca7119915b50764b4abe8652979,
    0x1ba2bfd0d5ff5b22493de1d6e27e73d7,
    0x1145b7e285bf98f56dc6ad264d8f0866,
    0x159725db272f7f32c938586fe0f2ca80,
    0x1afcef51f0fb5eff7b866e8bd92f7d20,
    0x10de1593369d1b5fad34051767bdae34,
    0x15159af8044462379881065d41ad19c1,
    0x1a5b01b605557ac57ea147f492186032,
    0x1078e111c3556cbb6f24ccf8db4f3c1f,
    0x14971956342ac7ea4aee003712230b27,
    0x19bcdfabc13579e4dda98044d6abcdf0,
    0x10160bcb58c16c2f0a89f02b062b60b6,
    0x141b8ebe2ef1c73acd2c6c35c7b638e4,
    0x1922726dbaae39098077874339a3c71d,
    0x1f6b0f092959c74be0956914080cb8e4,
    0x13a2e965b9d81c8f6c5d61ac8507f38e,
    0x188ba3bf284e23b34774ba17a649f072,
    0x1eae8caef261aca01951e89d8fdc6c8f,
    0x132d17ed577d0be40fd3316279e9c3d9,
    0x17f85de8ad5c4edd13c7fdbb186434cf,
    0x1df67562d8b3629458b9fd29de7d4203,
    0x12ba095dc7701d9cb7743e3a2b0e4942,
    0x17688bb5394c2503e5514dc8b5d1db92,
    0x1d42aea2879f2e44dea5a13ae3465277,
    0x1249ad2594c37ceb0b2784c4ce0bf38a,
    0x16dc186ef9f45c25cdf165f6018ef06d,
    0x1c931e8ab871732f416dbf7381f2ac88,
    0x11dbf316b346e7fd88e497a83137abd5,
    0x1652efdc6018a1fceb1dbd923d8596ca,
    0x1be7abd3781eca7c25e52cf6cce6fc7d,
    0x1170cb642b133e8d97af3c1a40105dce,
    0x15ccfe3d35d80e30fd9b0b20d0147542,
    0x1b403dcc834e11bd3d01cde904199292,
    0x1108269fd210cb16462120b1a28ffb9b,
    0x154a3047c694fddbd7a968de0b33fa82,
    0x1a9cbc59b83a3d52cd93c3158e00f923,
    0x10a1f5b813246653c07c59ed78c09bb6,
    0x14ca732617ed7fe8b09b7068d6f0c2a3,
    0x19fd0fef9de8dfe2dcc24c830cacf34c,
    0x103e29f5c2b18bedc9f96fd1e7ec180f,
    0x144db473335deee93c77cbc661e71e13,
    0x1961219000356aa38b95beb7fa60e598,
    0x1fb969f40042c54c6e7b2e65f8f91efe,
    0x13d3e2388029bb4fc50cfcffbb9bb35f,
    0x18c8dac6a0342a23b6503c3faa82a037,
    0x1efb1178484134aca3e44b4f95234844,
    0x135ceaeb2d28c0ebe66eaf11bd360d2b,
    0x183425a5f872f126e00a5ad62c839075,
    0x1e412f0f768fad70980cf18bb7a47493,
    0x12e8bd69aa19cc665f0816f752c6c8dc,
    0x17a2ecc414a03f7ff6ca1cb527787b13,
    0x1d8ba7f519c84f5ff47ca3e2715699d7,
    0x127748f9301d319bf8cde66d86d62026,
    0x17151b377c247e02f7016008e88ba830,
    0x1cda62055b2d9d83b4c1b80b22ae923c,
    0x12087d4358fc827250f91306f5ad1b65,
    0x168a9c942f3ba30ee53757c8b318623f,
    0x1c2d43b93b0a8bd29e852dbadfde7acf,
    0x119c4a53c4e69763a3133c94cbeb0cc1,
    0x16035ce8b6203d3c8bd80bb9fee5cff1,
    0x1b843422e3a84c8baece0ea87e9f43ee,
    0x1132a095ce492fd74d40c9294f238a75,
    0x157f48bb41db7bcd2090fb73a2ec6d12,
    0x1adf1aea12525ac068b53a508ba78856,
    0x10cb70d24b7378b8417144725748b536,
    0x14fe4d06de5056e651cd958eed1ae283,
    0x1a3de04895e46c9fe640faf2a8619b24,
    0x1066ac2d5daec3e3efe89cd7a93d00f7,
    0x14805738b51a74dcebe2c40d938c4134,
    0x19a06d06e261121426db7510f86f5181,
    0x100444244d7cab4c9849292a9b4592f1,
    0x1405552d60dbd61fbe5b73754216f7ad,
    0x1906aa78b912cba7adf25052929cb598,
    0x1f485516e7577e91996ee4673743e2ff,
    0x138d352e5096af1affe54ec0828a6ddf,
    0x18708279e4bc5ae1bfdea270a32d0957,
    0x1e8ca3185deb719a2fd64b0ccbf84bad,
    0x1317e5ef3ab327005de5eee7ff7b2f4c,
    0x17dddf6b095ff0c0755f6aa1ff59fb1f,
    0x1dd55745cbb7ecf092b7454a7f3079e7,
    0x12a5568b9f52f4165bb28b4e8f7e4c30,
    0x174eac2e8727b11bf29f2e22335ddf3c,
    0x1d22573a28f19d62ef46f9aac035570b,
    0x123576845997025dd58c5c0ab8215667,
    0x16c2d4256ffcc2f54aef730d6629ac01,
    0x1c73892ecbfbf3b29dab4fd0bfb41701,
    0x11c835bd3f7d784fa28b11e277d08e60,
    0x163a432c8f5cd6638b2dd65b15c4b1f9,
    0x1bc8d3f7b3340bfc6df94bf1db35de77,
    0x115d847ad000877dc4bbcf772901ab0a,
    0x15b4e5998400a95d35eac354f34215cd,
    0x1b221effe500d3b48365742a30129b40,
    0x10f5535fef208450d21f689a5e0ba108,
    0x1532a837eae8a56506a742c0f58e894a,
    0x1a7f5245e5a2cebe4851137132f22b9d,
    0x108f936baf85c136ed32ac26bfd75b42,
    0x14b378469b673184a87f57306fcd3212,
    0x19e056584240fde5d29f2cfc8bc07e97,
    0x102c35f729689eafa3a37c1dd7584f1e,
    0x14374374f3c2c65b8c8c5b254d2e62e6,
    0x1945145230b377f26faf71eea079fb9f,
    0x1f965966bce055ef0b9b4e6a48987a87,
    0x13bdf7e0360c35b5674111026d5f4c94,
    0x18ad75d8438f4322c111554308b71fba,
    0x1ed8d34e547313eb7155aa93cae4e7a8,
    0x13478410f4c7ec7326d58a9c5ecf10c9,
    0x1819651531f9e78ff08aed437682d4fb,
    0x1e1fbe5a7e786173ecada89454238a3a,
    0x12d3d6f88f0b3ce873ec895cb4963664,
    0x1788ccb6b2ce0c2290e7abb3e1bbc3fd,
    0x1d6affe45f818f2b352196a0da2ab4fd,
    0x1262dfeebbb0f97b0134fe24885ab11e,
    0x16fb97ea6a9d37d9c1823dadaa715d65,
    0x1cba7de5054485d031e2cd19150db4bf,
    0x11f48eaf234ad3a21f2dc02fad2890f7,
    0x1671b25aec1d888aa6f9303b9872b535,
    0x1c0e1ef1a724eaad50b77c4a7e8f6282,
    0x1188d357087712ac5272adae8f199d91,
    0x15eb082cca94d757670f591a32e004f6,
    0x1b65ca37fd3a0d2d40d32f60bf980633,
    0x111f9e62fe44483c4883fd9c77bf03e0,
    0x156785fbbdd55a4b5aa4fd0395aec4d8,
    0x1ac1677aad4ab0de314e3c447b1a760e,
    0x10b8e0acac4eae8aded0e5aaccf089c9,
    0x14e718d7d7625a2d96851f15802cac3b,
    0x1a20df0dcd3af0b8fc2666dae037d74a,
    0x10548b68a044d6739d980048cc22e68e,
    0x1469ae42c8560c1084fe005aff2ba032,
    0x198419d37a6b8f14a63d8071bef6883e,
    0x1fe52048590672d9cfcce08e2eb42a4e,
    0x13ef342d37a407c821e00c58dd309a70,
    0x18eb0138858d09ba2a580f6f147cc10d,
    0x1f25c186a6f04c28b4ee134ad99bf150,
    0x137798f428562f997114cc0ec80176d2,
    0x18557f31326bbb7fcd59ff127a01d486,
    0x1e6adefd7f06aa5fc0b07ed7188249a8,
    0x1302cb5e6f642a7bd86e4f466f516e09,
    0x17c37e360b3d351ace89e3180b25c98b,
    0x1db45dc38e0c8261822c5bde0def3bee,
    0x1290ba9a38c7d17cf15bb96ac8b58575,
    0x1734e940c6f9c5dc2db2a7c57ae2e6d2,
    0x1d022390f8b83753391f51b6d99ba086,
    0x1221563a9b73229403b3931248014454,
    0x16a9abc9424feb3904a077d6da019569,
    0x1c5416bb92e3e60745c895cc9081fac3,
    0x11b48e353bce6fc48b9d5d9fda513cba,
    0x1621b1c28ac20bb5ae84b507d0e58be8,
    0x1baa1e332d728ea31a25e249c51eeee3,
    0x114a52dffc679925f057ad6e1b33554d,
    0x159ce797fb817f6f6c6d98c9a2002aa1,
    0x1b04217dfa61df4b4788fefc0a803549,
    0x10e294eebc7d2b8f0cb59f5d8690214e,
    0x151b3a2a6b9c7672cfe30734e83429a1,
    0x1a6208b50683940f83dbc9022241340a,
    0x107d457124123c89b2695da15568c086,
    0x149c96cd6d16cbac1f03b509aac2f0a7,
    0x19c3bc80c85c7e9726c4a24c1573acd1,
    0x101a55d07d39cf1e783ae56f8d684c03,
    0x1420eb449c8842e616499ecb70c25f03,
    0x19292615c3aa539f9bdc067e4cf2f6c4,
    0x1f736f9b3494e88782d3081de02fb476,
    0x13a825c100dd1154b1c3e512ac1dd0c9,
    0x18922f31411455a9de34de57572544fc,
    0x1eb6bafd91596b1455c215ed2cee963b,
    0x133234de7ad7e2ecb5994db43c151de5,
    0x17fec216198ddba7e2ffa1214b1a655e,
    0x1dfe729b9ff15291dbbf89699de0feb6,
    0x12bf07a143f6d39b2957b5e202ac9f31,
    0x176ec98994f48881f3ada35a8357c6fe,
    0x1d4a7bebfa31aaa270990c31242db8bd,
    0x124e8d737c5f0aa5865fa79eb69c9376,
    0x16e230d05b76cd4ee7f791866443b854,
    0x1c9abd04725480a2a1f575e7fd54a669,
    0x11e0b622c774d065a53969b0fe54e801,
    0x1658e3ab7952047f0e87c41d3dea2202,
    0x1bef1c9657a6859ed229b5248d64aa82,
    0x117571ddf6c81383435a1136d85eea91,
    0x15d2ce55747a1864143095848e76a536,
    0x1b4781ead1989e7d193cbae5b2144e83,
    0x110cb132c2ff630e2fc5f4cf8f4cb112,
    0x154fdd7f73bf3bd1bbb77203731fdd56,
    0x1aa3d4df50af0ac62aa54e844fe7d4ac,
    0x10a6650b926d66bbdaa75112b1f0e4eb,
    0x14cffe4e7708c06ad15125575e6d1e26,
    0x1a03fde214caf08585a56ead360865b0,
    0x10427ead4cfed6537387652c41c53f8e,
    0x14531e58a03e8be850693e7752368f71,
    0x1967e5eec84e2ee264838e1526c4334e,
    0x1fc1df6a7a61ba9afda4719a70754022,
    0x13d92ba28c7d14a0de86c70086494815,
    0x18cf768b2f9c59c9162878c0a7db9a1a,
    0x1f03542dfb83703b5bb296f0d1d280a1,
    0x1362149cbd322625194f9e5683239064,
    0x183a99c3ec7eafae5fa385ec23ec747e,
    0x1e494034e79e5b99f78c67672ce7919d,
    0x12edc82110c2f9403ab7c0a07c10bb02,
    0x17a93a2954f3b7904965b0c89b14e9c3,
    0x1d9388b3aa30a5745bbf1cfac1da2433,
    0x127c35704a5e6768b957721cb92856a0,
    0x171b42cc5cf60142e7ad4ea3e7726c48,
    0x1ce2137f74338193a198a24ce14f075a,
    0x120d4c2fa8a030fc44ff65700cd16498,
    0x16909f3b92c83d3b563f3ecc1005bdbe,
    0x1c34c70a777a4c8a2bcf0e7f14072d2e,
    0x11a0fc668aac6fd65b61690f6c847c3d,
    0x16093b802d578bcbf239c35347a59b4c,
    0x1b8b8a6038ad6ebeeec83428198f021f,
    0x1137367c236c6537553d20990ff96153,
    0x1585041b2c477e852a8c68bf53f7b9a8,
    0x1ae64521f7595e26752f82ef28f5a812,
    0x10cfeb353a97dad8093db1d57999890b,
    0x1503e602893dd18e0b8d1e4ad7ffeb4e,
    0x1a44df832b8d45f18e7065dd8dffe622,
    0x106b0bb1fb384bb6f9063faa78bfefd5,
    0x1485ce9e7a065ea4b747cf9516efebca,
    0x19a742461887f64de519c37a5cabe6bd,
    0x1008896bcf54f9f0af301a2c79eb7036,
    0x140aabc6c32a386cdafc20b798664c43,
    0x190d56b873f4c68811bb28e57e7fdf54,
    0x1f50ac6690f1f82a1629f31ede1fd72a,
    0x13926bc01a973b1a4dda37f34ad3e67a,
    0x187706b0213d09e0e150c5f01d88e019,
    0x1e94c85c298c4c5919a4f76c24eb181f,
    0x131cfd3999f7afb7b0071aa39712ef13,
    0x17e43c8800759ba59c08e14c7cd7aad8,
    0x1ddd4baa0093028f030b199f9c0d958e,
    0x12aa4f4a405be19961e6f003c1887d79,
    0x1754e31cd072d9ffba60ac04b1ea9cd7,
    0x1d2a1be4048f907fa8f8d705de65440d,
    0x123a516e82d9ba4fc99b8663aaff4a88,
    0x16c8e5ca239028e3bc0267fc95bf1d2a,
    0x1c7b1f3cac74331cab0301fbbb2ee474,
    0x11ccf385ebc89ff1eae1e13d54fd4ec9,
    0x1640306766bac7ee659a598caa3ca27b,
    0x1bd03c81406979e9ff00efefd4cbcb1a,
    0x116225d0c841ec323f6095f5e4ff5ef0,
    0x15baaf44fa52673ecf38bb735e3f36ac,
    0x1b295b1638e7010e8306ea5035cf0457,
    0x10f9d8ede39060a911e4527221a162b6,
    0x15384f295c7478d3565d670eaa09bb64,
    0x1a8662f3b39197082bf4c0d2548c2a3d,
    0x1093fdd8503afe651b78f88374d79a66,
    0x14b8fd4e6449bdfe625736a4520d8100,
    0x19e73ca1fd5c2d7dfaed044d6690e140,
    0x103085e53e599c6ebcd422b0601a8cc8,
    0x143ca75e8df0038a6c092b5c78212ffa,
    0x194bd136316c046d070b763396297bf8,
    0x1f9ec583bdc7058848ce53c07bb3daf6,
    0x13c33b72569c63752d80f4584d5068da,
    0x18b40a4eec437c5278e1316e60a48310,
];
