"""Golden output cases: the command lines whose output bytes are pinned.

Each case runs ``cli.main`` in-process and hashes the output file it writes.
``tests/test_golden.py`` runs these cases under pytest; run this file to
check every pinned digest on an interpreter that has no pytest:

    PYTHONPATH=src python tests/golden_cases.py

It prints one line per case and exits 1 if any digest does not match.
"""

import hashlib
import platform
import sys
import tempfile
from pathlib import Path

from frenetlift import cli

CURVES = {
    "helix": """\
name = helix
x1 = 3*cos(t)
x2 = 3*sin(t)
x3 = 4*t
t_min = 0
t_max = 1.5
""",
    "torus": """\
name = torus_knot
x1 = (2 + 0.5*cos(3*t))*cos(2*t)
x2 = (2 + 0.5*cos(3*t))*sin(2*t)
x3 = 0.5*sin(3*t)
t_min = 0.25
t_max = 1.25
""",
    # Non-constant speed and no trig component, unlike the two above.
    "poly": """\
name = poly_exp
x1 = t
x2 = t^2*exp(t/3)
x3 = t^3 - sinh(t)/7
t_min = 0.2
t_max = 1.4
""",
}

CONNECTION = "gamma 1 2 3 = 0.3\ngamma 3 2 1 = -0.3\ngamma 2 1 1 = 0.2\n"
X_FIELD = "X1 = x2*x3\nX2 = sin(x1)\nX3 = 0.5*x1 - x2\n"
Y_FIELD = "X1 = cos(x2)\nX2 = x1*x1\nX3 = exp(0.1*x3)\n"
F_SCALAR = "f = x1*x2 + x3^2\n"
G_SCALAR = "f = sin(x1)*x3\n"

LIFTS = {
    "frenet": ["frenet"],
    "lift_v": ["lift", "--kind", "v", "--anchor=1,-2,0.5"],
    "lift_c": ["lift", "--kind", "c"],
    "lift_h": ["lift", "--kind", "h", "--w0=-0.5,1,0.25"],
    "lift_h_nonflat": ["lift", "--kind", "h", "--w0=1,-0.5,0.75", "--connection", "{conn}"],
}

FIELDS = [
    "fields", "--field", "{X}", "--field", "{Y}", "--scalar", "{f}", "--scalar", "{g}",
    "--connection", "{conn}", "--point=0.5,-1,2,1,0.25,-0.75", "--point=-1.5,0.3,0.7,-2,1,0.5",
]

GOLDEN = {
    "fields-csv": "2b46e71af4d2a74b39c74a18c7d01365f0f83486d563b558393473a78416356f",
    "fields-json": "cb22d3b4a3c653dfc315eef2e1db7757e22b0f7d460fd887fe79d381bde9ec37",
    "frenet-helix-csv": "753fb5ccf3dcd7eb5cd036464fd279f1d80ed52bcebbdd333f934bd5dc34e51e",
    "frenet-helix-json": "5486df94c4327ae1781aad2b77014fe7eda3b73b66bd72827134e7bfee8ba9bb",
    "frenet-poly-csv": "7a58814ad654ad89d1783185a2143d8273fe7565f3035a472a0732b727a6182e",
    "frenet-poly-json": "85e063db8bda01d14510ba6688fab4eea3526231d5c589d12924b7b04e3e246f",
    "frenet-torus-csv": "1c560c239dc9ee3ca1a85fe79c7686a9452de6d8509bd8099a5d13542107ee03",
    "frenet-torus-json": "b39cefdc378730afdaaddc7f28da512b625e3801c00b2a28a8bd1c544c7f30ce",
    "lift_c-helix-csv": "c63e5007648b276e9943bb45d67edd1f930a11b481aa84a7e1a34eb58ddd10d8",
    "lift_c-helix-json": "3ba7bcdc0142de19bb75571a38494e14170e4d0d3d0a49fb127acf6e16899648",
    "lift_c-poly-csv": "a71c3e25c474e77298c0586ea63b6f0bccf5ad08c99079b691ebd0e4b24f3c2f",
    "lift_c-poly-json": "fc0a2f14331bc94ff7ddb1c8aeddea50cc6b96151595fe60310f5381d82fcb40",
    "lift_c-torus-csv": "85b0255ad0c772b19e1f6488f89319b8da8023f80739ef84a5039ca5876699ab",
    "lift_c-torus-json": "162ab19ed2c401f9943c921c58ca354881fc54de3bda513012d193aef10f09bf",
    "lift_h-helix-csv": "cf0e89743f14adf5b0e6bf46b861d54574a00ae539c6407251e8e8b625817200",
    "lift_h-helix-json": "280f0fa46adb72c255b265f9b3187abbafdd6a190bd310054efbce942cd7a0ea",
    "lift_h-poly-csv": "9590c2b8abb288cb8293e46d480dcd9b9c62bae3269322701902ab1ab9c3f078",
    "lift_h-poly-json": "6c7f7af40314113a7173dcb09f821e0ecc0717dbeb48507898ceaa72a85c395e",
    "lift_h-torus-csv": "14a4677cacd0012ebe07ee122dfd30ec850a03442935cdc93e0d2fda38198272",
    "lift_h-torus-json": "8e555c3087c852133ffa67425b903e024b77b1060c3e067ae03c7639f1e8e7bb",
    "lift_h_nonflat-helix-csv": "605dc2e8d73cf31b8b6cb5477d1032791693884917620dba3b1ecb7fd4303db3",
    "lift_h_nonflat-helix-json": "6b799aeec81945a53d75d8651e9b3d8931b7fdeb79db98c8aabc4063941ee490",
    "lift_h_nonflat-poly-csv": "13a2df9f5b50c9aeeaba34f203e36cda80965acc76ad87f262aa02c931b7edc4",
    "lift_h_nonflat-poly-json": "2e17cc124776690ac585f224234dffb29354b669a177f1aa2ab47febf8709c8a",
    "lift_h_nonflat-torus-csv": "f2e66e4450721442b3c117c82df8188146fc54b5220ef1fdd7c372fa0a9705ed",
    "lift_h_nonflat-torus-json": "d70c515292f2421f09117a9e8c0056600d6b2a92aee99eb3f39c08c12736fe0e",
    "lift_v-helix-csv": "f7030e7d6b582a4a335a6f25870380ab09a733cbda1b5d35868c3015c4e9bb8e",
    "lift_v-helix-json": "44c41851122f7c9efece6aaa216be60772668bd58c13d751fb90c9ace33b4c39",
    "lift_v-poly-csv": "9d9ca7b058f238c73724515f22833226c1879d7dfa1cc49a331009eac55daec2",
    "lift_v-poly-json": "8a4ce49576ea264a055db98a9381feb8c03e2a17e0bf40a4f46494eb4c99f48d",
    "lift_v-torus-csv": "c602aac2c2b38079a7d80e598a517ebfbc4e20c1364f57113e18d0cb4e4c4bca",
    "lift_v-torus-json": "43d97a8feff4bd6a7ab996e1ba5c727012a5ec3980a0244ef26357fe0603dede",
}


# verify draws its inputs from its own fixed seed, so its text output at a
# given sample count is as deterministic as the sweeps above.  At 7 samples
# the max(2, samples // k) floors of its subsampled grids bind.
VERIFY = {
    "verify-50": "c89397dc85d5c0dc74781d66c98490e0787d5acae5cd650367b4b60e6b5718ba",
    "verify-7": "1d648608491c1544d8afbd5926ebcd1ca9414178b89b77cac182fa2272437547",
}


def argv(case: str, tmp_dir: Path) -> list[str]:
    """Command line of a case, with its input files written into tmp_dir."""
    *command, last = case.split("-")
    if command == ["verify"]:
        return ["verify", "--samples", last]
    paths = {}
    for key, text in (("conn", CONNECTION), ("X", X_FIELD), ("Y", Y_FIELD),
                      ("f", F_SCALAR), ("g", G_SCALAR)):
        path = tmp_dir / f"{key}.in"
        path.write_text(text)
        paths[key] = str(path)
    if command == ["fields"]:
        template = FIELDS
    else:
        name, curve = command
        curve_path = tmp_dir / f"{curve}.curve"
        curve_path.write_text(CURVES[curve])
        template = LIFTS[name] + ["--curve", str(curve_path), "--samples", "7"]
    return [arg.format(**paths) for arg in template] + ["--format", last]


def digest(case: str, tmp_dir: Path) -> tuple[int, str | None]:
    """Exit code of a case and the sha256 of its output (None if it wrote none)."""
    out = tmp_dir / "out"
    code = cli.main(argv(case, tmp_dir) + ["--out", str(out)])
    return code, hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None


def main() -> int:
    pinned = {**GOLDEN, **VERIFY}
    failed = 0
    for case, want in sorted(pinned.items()):
        with tempfile.TemporaryDirectory() as tmp:
            code, got = digest(case, Path(tmp))
        ok = code == cli.EXIT_OK and got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {case}: exit {code}, sha256 {got}")
    print(f"Python {platform.python_version()}: {len(pinned) - failed} of {len(pinned)} "
          "digests match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
