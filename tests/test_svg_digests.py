"""Pinned sha256 digests of ``emit_svg`` over a sweep of piles and configs.

Each digest covers one family at one (width, epsilon) rule: for every pile
in order, its name and either the SVG document or the ``LayoutOverlap``
message it raises. The digests were recorded from the exact-rational
geometry that the integer lattice replaced, so they pin the SVG bytes and
the overlap messages across that change and across interpreters.

Runs under pytest, or without it as a plain script that prints one line
per digest and exits 1 on any mismatch:

    PYTHONPATH=src python tests/test_svg_digests.py
"""

import hashlib
import sys
from fractions import Fraction

from ribbonfold.layout import (
    LayoutConfig,
    LayoutOverlap,
    _wing_gaps,
    default_epsilon,
    emit_svg,
)

from piles import FAMILIES, piles

HALF = Fraction(1, 2)
SEVEN_THIRDS = Fraction(7, 3)
TINY = Fraction(1, 10**9)


def _budget(s, width):
    """The widest plane's fold-back budget: the guard fires at and above it."""
    return Fraction(width) / (max(_wing_gaps(s)) + 2)


# rule name -> schedule -> (width, epsilon)
RULES = {
    "default": lambda s: (1, default_epsilon(s)),
    "float 0.01": lambda s: (1, 0.01),
    "1/10^9": lambda s: (1, TINY),
    "3/17": lambda s: (1, Fraction(3, 17)),
    "below budget": lambda s: (1, _budget(s, 1) - TINY),
    "budget": lambda s: (1, _budget(s, 1)),
    "w=1/2 default": lambda s: (HALF, default_epsilon(s, HALF)),
    "w=1/2 1/10^9": lambda s: (HALF, TINY),
    "w=1/2 float 0.01": lambda s: (HALF, 0.01),
    "w=7/3 default": lambda s: (SEVEN_THIRDS, default_epsilon(s, SEVEN_THIRDS)),
    "w=7/3 3/17": lambda s: (SEVEN_THIRDS, Fraction(3, 17)),
    "w=7/3 budget": lambda s: (SEVEN_THIRDS, _budget(s, SEVEN_THIRDS)),
}

DIGESTS = {
    ("corpus", "default"):
        "33e573f763848e3e8aab383a5440613b7862b19b7b355b11b885efc88db61c08",
    ("corpus", "float 0.01"):
        "33e573f763848e3e8aab383a5440613b7862b19b7b355b11b885efc88db61c08",
    ("corpus", "1/10^9"):
        "15c8a81b22f6b7bd30864cdecf0185e7d5e6e035c7f1f9b33aa773472929c546",
    ("corpus", "3/17"):
        "fbd55599fb3ca24dd11a9a82c77eabfb93c0c73e6967ce2bd77a6658569a0e5a",
    ("corpus", "below budget"):
        "8d0b22a5ccab8b731bbaa4c1e4cdb88a01ed54287b3ebf814cb7ec05572c6b99",
    ("corpus", "budget"):
        "5c3a1f88947b969228e68a7828c521fb6c4ca7748a799d4045c616a4cb815e72",
    ("corpus", "w=1/2 default"):
        "b1aed322b765243df3c348015893eb7a7152be021dde4c1d505ee5a1c1e30675",
    ("corpus", "w=1/2 1/10^9"):
        "15c8a81b22f6b7bd30864cdecf0185e7d5e6e035c7f1f9b33aa773472929c546",
    ("corpus", "w=1/2 float 0.01"):
        "b1aed322b765243df3c348015893eb7a7152be021dde4c1d505ee5a1c1e30675",
    ("corpus", "w=7/3 default"):
        "084cbf124c30836bc90150864272410365737de74da5b10ecfd13934031d5413",
    ("corpus", "w=7/3 3/17"):
        "eac8222641fd0751cb4fb04845702daae50fcb59b033f6145f2fc5e89029a9e9",
    ("corpus", "w=7/3 budget"):
        "76dce0fa3f3ee9b53f0fe9492f822e9ebb0935145590b631aa44c9f5cc7075b7",
    ("ladder", "default"):
        "f9c0765f4804c4602c9b20fc47fe8e7346e93a1cad4bff16be1b4a45066cca20",
    ("ladder", "float 0.01"):
        "252d827ec1e13a4abdb3dfe84b2b53cc6c5e35a1c724f6547ffd04e53ce7d10a",
    ("ladder", "1/10^9"):
        "8ff76129b1f92367b7e8186174c23c89f4704e843bbd404f292c4ffe75f88603",
    ("ladder", "3/17"):
        "9e195e0715249aa3e8f81673e80dcb161f2d9f99bc3b0a8b2b6b17606e8b5fb3",
    ("ladder", "below budget"):
        "1508fb94ca144f930e7c514fdd672f888cc1fde10878f2d8c6d465611247fec6",
    ("ladder", "budget"):
        "578f310890f27cb9bbea9b1b2ca689ce82fe2dc6a5aacb9848319df4651049fc",
    ("ladder", "w=1/2 default"):
        "c2f39c5590f7058391c263d91cf5ba22b0b721d2fc40d97bb25d496ff8d37263",
    ("ladder", "w=1/2 1/10^9"):
        "8ff76129b1f92367b7e8186174c23c89f4704e843bbd404f292c4ffe75f88603",
    ("ladder", "w=1/2 float 0.01"):
        "c923f5580a5f94075027e5b86af03da9fee435d0538507a7c155f6182c926894",
    ("ladder", "w=7/3 default"):
        "a9c379163cda7371afadaec42d3a2f8faba2a35bfa3351cd44fe9a538daf8baa",
    ("ladder", "w=7/3 3/17"):
        "635c3f74bc377b5eb6f835ce2007053a681b857637d306235b8aa3638679fd56",
    ("ladder", "w=7/3 budget"):
        "dc6b74dcbdf9b483478e3be62b583d37803b533a89e9c9b5978d9d32718493d3",
    ("randbraids", "default"):
        "9e78fca2113094c0a3f13e5c8f3b6cce639c8b2dd0d643ff735ff5e24f8f9bbb",
    ("randbraids", "float 0.01"):
        "9e78fca2113094c0a3f13e5c8f3b6cce639c8b2dd0d643ff735ff5e24f8f9bbb",
    ("randbraids", "1/10^9"):
        "e3c1c727d1c9cdbe0191904a11205653d08c4dab84749c26168851e6c4058516",
    ("randbraids", "3/17"):
        "56344db3c6a1f39d3007a9c6f973d280649e5ae32c26ace490b7cd583cdaa47a",
    ("randbraids", "below budget"):
        "66f00f3d7b4ef15712f6fed62b852d9457b60ae9160d06ef24de08c1b1d80c1c",
    ("randbraids", "budget"):
        "f296be353ecbf17dedc29e7a9677ac70968c48f12d096a9ff892fd618ad006d9",
    ("randbraids", "w=1/2 default"):
        "55908820a93d875104de7bc35af62d8deb229a44d37dd43b294e6d4b7d81e3ef",
    ("randbraids", "w=1/2 1/10^9"):
        "e3c1c727d1c9cdbe0191904a11205653d08c4dab84749c26168851e6c4058516",
    ("randbraids", "w=1/2 float 0.01"):
        "4a9c8f694a6eee2bd1d8a4dd0d8d93de8720dc410c76fd377a3733ad3843c441",
    ("randbraids", "w=7/3 default"):
        "725aa4acaccc399ca12c83777c7b934584376d2ed08b7f39dec29590b5a7cebd",
    ("randbraids", "w=7/3 3/17"):
        "24eadaad8e799b39beb460fbcca04c584b85ad3699c2c72de4750601317b2146",
    ("randbraids", "w=7/3 budget"):
        "a824a392e8f8b498333e04185fd2b0b1a78baeb055f7b2120987e73b5d683741",
}


def sweep_digest(family, rule):
    h = hashlib.sha256()
    for name, s in piles(family):
        width, eps = RULES[rule](s)
        try:
            out = emit_svg(s, LayoutConfig(width=width, epsilon=eps))
        except LayoutOverlap as e:
            out = f"LayoutOverlap: {e}"
        h.update(f"{name}\n{out}\n".encode())
    return h.hexdigest()


def test_svg_digests_are_pinned():
    got = {(f, r): sweep_digest(f, r) for f in FAMILIES for r in RULES}
    assert got == DIGESTS


def main():
    bad = 0
    for family in FAMILIES:
        for rule in RULES:
            got = sweep_digest(family, rule)
            ok = DIGESTS.get((family, rule)) == got
            bad += not ok
            print(f"{family:10} {rule:18} {got} {'ok' if ok else 'MISMATCH'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
