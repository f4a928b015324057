"""Byte-identity of CLI stdout: argv -> (exit code, sha256 of stdout).

The table was recorded once from the CLI and pins every subcommand in all
three formats, plus rows outside the inversion regime, the D = 21 ceiling,
a numerical failure (exit 3), a failed verification (exit 1) and a degree
beyond the double range (exit 2).  A refactor that keeps behaviour keeps
every digest.

Float digests are tied to the CPython and libm they were recorded with:
the 17-digit float text can differ in the last place on another platform.
A change that moves floats on purpose (ROADMAP item 2b, a different root
polish) re-records the table and says so in CHANGES.md.

Run as a script to record rows from the current checkout; it prints one
``(argv, exit code, sha256)`` row per argument and never rewrites this file:

    PYTHONPATH=src python tests/test_cli_golden.py "figure --D 4 --k-min 2000 --k-max 4000"
"""

import contextlib
import hashlib
import io
import sys

import pytest

from faberzeros.cli import _build_parser, main

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = [
    ("faber --k 2400 --m last-8 --format json", 0,
     "bfd60f2a0cfc4d464da075c58fff0459cc012eee4326082aa0c3a3b2750aa8b1"),
    ("faber --k 2400 --m last-8 --format csv", 0,
     "dece10a74e8f523dbf454c8f3ae746e8f78ed5d9c5d4130aed99385a1d49797c"),
    ("faber --k 2400 --m last-8 --format pretty", 0,
     "1fa2e6dcb0ddc96b0cb19550b8a81021f89852455eddfc0ceae4b5d0939c586e"),
    ("zeros --k 240000 --m last-8 --format json", 0,
     "968f41f3ba6d18459ec4db62903892b4a754b8c7ee75d198c696cc59ba41d27b"),
    ("zeros --k 240000 --m last-8 --format csv", 0,
     "d222f2312a43081e6b22036ae1d667746dcd5d3461b6672eba2137891e4ddafa"),
    ("zeros --k 240000 --m last-8 --format pretty", 0,
     "04a1bb1240f9c83c0543289cb5dddc0ea6b07a8df7c7efd5227a7d52142dc8fd"),
    ("exp-zeros --D 8 --format json", 0,
     "046f07b08b62b1614759a45e919cfc29688f98acd3d0c4ce3b256dc120d8bcb5"),
    ("exp-zeros --D 8 --format csv", 0,
     "57512fe974b82c02f7a980d51b8e87f72e609879e2ee170aa3b0d3b4495b946e"),
    ("exp-zeros --D 8 --format pretty", 0,
     "e6c82cb9b2bb85a8f16d1e8722fcd5d35907bde9c6daf986b8b6c76ec94117de"),
    ("predict --k 240000 --D 8 --format json", 0,
     "3a34ff96971c7ed7bd35120d4f4de803e00bfdffe996aa200389d2b169f166f7"),
    ("predict --k 240000 --D 8 --format csv", 0,
     "54e5b44da8402c0152bbfcb53f49fb1aab1a8bd6f73c054fe17e282b98787e0b"),
    ("predict --k 240000 --D 8 --format pretty", 0,
     "73eaab000ff26a60bd644059c35790b38824726baaaa01c5893e8f8ab6a38fc3"),
    ("figure --D 4 --k-min 2000 --k-max 4000 --format json", 0,
     "c0471b2d6831b842a87bc50728f3730ecbe68765a77dce44b1b82deb26c773ac"),
    ("figure --D 4 --k-min 2000 --k-max 4000 --format csv", 0,
     "240402d9cc6d611c7bf9d550a63f9cdaa91142dac4f50e766201130d640e9fb0"),
    ("figure --D 4 --k-min 2000 --k-max 4000 --format pretty", 0,
     "4bab2c6ab04c97bba8c08d6766fcfd082ad5d2e55ec66da08899b296d840a5d6"),
    ("verify --D 4 --k-min 2400 --k-max 19200 --format json", 0,
     "5e53392d40169d48fd483186d14985ace61a06a325ec659e1b77faa4eeb87d65"),
    ("verify --D 4 --k-min 2400 --k-max 19200 --format csv", 0,
     "0c29f38a93500342192c775cd014c0434896a4b81e00800f7213fc2b08ef786f"),
    ("verify --D 4 --k-min 2400 --k-max 19200 --format pretty", 0,
     "f540e2bddcac3e313b92d5d4edf745542307a38393cf1eb3205970882563a9ad"),
    ("basis --k 48 --format json", 0,
     "3a760c81b79cbe23ffd895816515aa759a7546f697714743395be992176dc5d5"),
    ("basis --k 48 --format csv", 0,
     "926bf59423d4db02443baa174a78042424dac988380411fcef97745c09b03cc8"),
    ("basis --k 48 --format pretty", 0,
     "77311be58c2f72ce6bcd29d1b715269dce344a050da671ec329cf9eff1797f5a"),
    # one weight per k' class (k' = 14, 14, 4, 6, 8, 10, 0), ell = 0 at k = 14
    ("basis --k 14 --format json", 0,
     "06dc862995a59a435bb778a055ce316e841e7ba4b94dfdbb6270c66e5784ed41"),
    ("basis --k 122 --format json", 0,
     "68583e76336ac82ed6730c1d031edbc96be3de8aa5e9d2f256c123a2004e38d2"),
    ("basis --k 124 --format json", 0,
     "30f9a52dc53d83e8cf029a9a174e03575ba0aebadc2c456c4903902fde9b092b"),
    ("basis --k 126 --format json", 0,
     "0f19782945928bdac8f6b402cdab2b0cc49c24b3546e1e4fb5c10e94847e1930"),
    ("basis --k 128 --format json", 0,
     "82daf8736828ebc3bf3aa88a2ad07d9e9f16f313bda92de1172e7321ad4b5b33"),
    ("basis --k 130 --format json", 0,
     "ebeb9a77e221fcce7d8cc997be420c99f4337b7fad57005055e2c28e48657563"),
    ("basis --k 240 --format json", 0,
     "accac321c43b975577e2a8b216432db104ee8ecf6856d81dd8dc135729fbb047"),
    ("basis --k 240 --format csv", 0,
     "f90c3f166a296a2978b01c3cc840698ff69ba0dd2a5dcf5e44c351a54cbd551c"),
    ("basis --k 240 --format pretty", 0,
     "6215183e86dfcd966d02dc87353c3f649b86cc7b8f1f572df1f7363076a42bf4"),
    ("zeros --k 240000 --m last-21", 0,
     "fb8dd2eb14370544b0b8603099afb0e39f6dfd908492e7db0c3f242a1c8d65ec"),
    ("zeros --k 24 --m 0", 0, "22ba0970d43dd68b8cbae66f152183c1aa6f3ee3088a70377c3c5243b0a49bbd"),
    ("verify --D 8 --k-min 2400 --k-max 614400", 1,
     "d36604dca1c1c2ac2ddb0b4f18f63dc8a87cd8acb02fbeb89c8ef4db3f508c15"),
    ("verify --D 8 --k-min 1316 --k-max 25000000", 1,
     "e286d49bdd6cb59274ba194a2a7dc4d7dc7e54c497a579b71d7a341600be9c22"),
    ("verify --D 8 --k-min 1316 --k-max 25000000 --format json", 1,
     "d0f243fc184e51601696b53e3d41925760feaa107005ab8e75d05ccd01f3b538"),
    ("verify --D 8 --k-min 1316 --k-max 25000000 --format csv", 1,
     "feaa88e3ed8b355d100ee0e4c2e71b645f0ed745640f5b2c9294cb0bbc4e1827"),
    ("exp-zeros --D 21", 0, "11b3d1a09e5da3ec7d1a96c1c9c968853c062eaf1fe2ce6525f4f69e03cbb62e"),
    ("exp-zeros --D 22", 3, EMPTY),
    ("exp-zeros --D 171", 2, EMPTY),
    ("figure --D 11 --k-min 2000 --k-max 6000000 --k-step 2000 --format json", 0,
     "413280cfa57e6eb52352d6b044a7a140cf63bf160fe742c80d1a0a94ef812e64"),
    ("figure --D 11 --k-min 2000 --k-max 6000000 --k-step 2000 --format csv", 0,
     "02aa3c9e250b646bfd0762cbe6d2725c44b3a99c39f6a9aec79cefc4f0ad23ab"),
    ("figure --D 11 --k-min 2000 --k-max 6000000 --k-step 2000 --format pretty", 0,
     "f903ffc06171d2cbbd7e74354a4570570053030c493f95570b24deb077eb9e14"),
    ("figure --D 12 --k-min 1200 --k-max 5000000 --k-step 2400 --format json", 0,
     "af2a301e02a5b0056c7075fc4fdb47b7aee516801bf725f3cab962c1b6515d2f"),
    ("figure --D 12 --k-min 1200 --k-max 5000000 --k-step 2400 --format csv", 0,
     "41930ee67b23e78bea295d2703696e38aa1a55a861f641cb0cbe995577d4fb09"),
    ("figure --D 12 --k-min 1200 --k-max 5000000 --k-step 2400 --format pretty", 0,
     "1a250c5c5a9168840e2c0449f9265ccacf0f373beea703db93f1513e9d7e5dfb"),
    ("predict --k 240000 --D 21 --format pretty", 0,
     "deaf0c4910c6433723497c0afafb4a358ff142ddc325ac950550b194d9abac6d"),
    ("figure --D 3 --k-min 2 --k-max 4000 --k-step 2 --format json", 0,
     "8d289b6575d1760cb8ce6878d43689ab773ac6f8b5fc4d9cd7ab1ac88aa00a90"),
    ("figure --D 1 --k-min 2 --k-max 8000000 --k-step 4000 --format json", 0,
     "c5a8d4823abc8854bc28772ef2d39df78d5f76d1761c8e42111f20870a569d36"),
    ("figure --D 1 --k-min 2 --k-max 8000000 --k-step 4000 --format csv", 0,
     "0c47ee97955969ded288b8cec4a834ab1e12554b1f39518afe2ca7757448e68b"),
    ("figure --D 1 --k-min 2 --k-max 8000000 --k-step 4000 --format pretty", 0,
     "d70065af2f8f4e520c51e41b91e29d715805cd2505127d5183b2bdc4fc0c0ce5"),
    ("figure --D 21 --k-min 8 --k-max 16000 --k-step 8 --format json", 0,
     "b0678d9e15de5378bbf5af241c70fceef0640514dd69926fbe569df99121e6c9"),
    ("figure --D 21 --k-min 8 --k-max 16000 --k-step 8 --format csv", 0,
     "dcef9ca1222bef5f631bcef57374ff48db14e8d174e968cf231aa5d4f65c2b0f"),
    ("figure --D 21 --k-min 8 --k-max 16000 --k-step 8 --format pretty", 0,
     "d3e3350b3981bedd7b07cb727a53b42c3e9a6edd1929d2bce3cd7bba6aee539e"),
    (f"predict --k {10**200} --D 12 --format json", 0,
     "772b20c4571fc2244bfc437cf15967daf7851e4650ee36657dd307157cbb7180"),
    (f"predict --k {10**200} --D 12 --format csv", 0,
     "0f1fd9b586c722a24d7b543d8c62844186ab0f2b59b2823bc93e7c47ad95223b"),
    (f"predict --k {10**200} --D 12 --format pretty", 0,
     "f74b161123f95c18950adf61a4bf57305e3c7795831dac84eded756667d5b104"),
    # the first weight passes 2k|z| > 1 on its first tracks and fails on a later r
    ("figure --D 12 --k-min 4 --k-max 8 --k-step 2", 2, EMPTY),
    ("figure --D 8 --k-min 2 --k-max 8 --k-step 2", 2, EMPTY),
]


@pytest.mark.parametrize(("argv", "code", "digest"), GOLDEN, ids=[argv for argv, _, _ in GOLDEN])
def test_cli_stdout_is_byte_identical(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_one_parser_serves_interleaved_calls(capsys, tmp_path):
    # one process, one parser: no format, output path or tolerance leaks between calls
    golden = {argv: (code, digest) for argv, code, digest in GOLDEN}
    parser = _build_parser()
    figure_json = "figure --D 4 --k-min 2000 --k-max 4000 --format json"
    verify = "verify --D 4 --k-min 2400 --k-max 19200"
    refused = "figure --D 12 --k-min 4 --k-max 8 --k-step 2"
    out_path = tmp_path / "points.csv"
    steps = [
        (figure_json, figure_json),
        ("zeros --k 240000 --m last-8", "zeros --k 240000 --m last-8 --format csv"),
        ("figure --D 4 --k-min 2000 --k-max 4000 --format xml", None),
        (verify, f"{verify} --format pretty"),
        (f"{refused} --tol 1e-3 --out {out_path}", refused),
        (figure_json, figure_json),
    ]
    for argv, key in steps:
        if key is None:
            with pytest.raises(SystemExit) as exc:
                main(argv.split())
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""
            continue
        code = main(argv.split())
        out = capsys.readouterr().out
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == golden[key], argv
    assert not out_path.exists()
    assert _build_parser() is parser
    args = parser.parse_args(["figure", "--D", "4", "--k-min", "2000", "--k-max", "4000"])
    assert (args.format, args.out, args.tol, args.k_step) == ("csv", None, 1e-10, 1000)


def record(argv: str) -> tuple[str, int, str]:
    """The golden row of one argv, computed by the current checkout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv.split())
    return argv, code, hashlib.sha256(out.getvalue().encode()).hexdigest()


if __name__ == "__main__":
    for argv in sys.argv[1:]:
        print(record(argv))
