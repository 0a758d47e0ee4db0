"""Verdicts of the seed code, recorded once; every run is compared to them.

Only verdicts are recorded: answers, exact values and supports.  Scan
counts (``checked``) and report bytes are left out on purpose, because
pruning and new counters may legitimately change them.
"""

PARAMS = {
    "g": "1/138",
    "delta_star": "69/250",
    "n_star": "250/69",
    "u_frak": "13588/10875",
    "d1_payoff": "250/63",
}

SAT_CERTIFICATE = {
    "unscaled_ne": True,
    "unscaled_welfare": "2",
    "scaled_ne": True,
    "scaled_welfare": "5/4",
    "scaled_wsne": True,
}

_ALL_YES = {f"p{i}": "yes" for i in range(1, 11)}
_ALL_UNKNOWN = {f"p{i}": "unknown" for i in range(1, 11)}

# Per CNF fixture: the report fields that carry a verdict.
PIPELINE = {
    "single": {"satisfiable": True, "max_sat_fraction": "1", "omega": "1",
               "certificate": SAT_CERTIFICATE, "deciders": _ALL_YES},
    "two-clause": {"satisfiable": True, "max_sat_fraction": "1", "omega": "1",
                   "certificate": SAT_CERTIFICATE, "deciders": _ALL_YES},
    "complementary": {"satisfiable": True, "max_sat_fraction": "1",
                      "omega": "1", "certificate": SAT_CERTIFICATE,
                      "deciders": _ALL_YES},
    "alternating": {"satisfiable": True, "max_sat_fraction": "1",
                    "omega": "1", "certificate": SAT_CERTIFICATE,
                    "deciders": _ALL_YES},
    "seven-of-eight": {"satisfiable": True, "max_sat_fraction": "1",
                       "omega": "1", "certificate": SAT_CERTIFICATE,
                       "deciders": _ALL_YES},
    "pattern": {"satisfiable": False, "max_sat_fraction": "7/8",
                "omega": "3/4", "certificate": None,
                "deciders": _ALL_UNKNOWN},
}

# `negadget verify Gs.bgm cert.prof --eps 31/250 --mode <mode>` exit code:
# the certificate passes in both modes on every satisfiable fixture.
VERIFY_EXIT = {"ne": 0, "wsne": 0}

# Exact support pairs yielded by enumerate_wsne_supports at eps* = 31/250,
# in order, per capped game up to 3x3 and mode.
_CORNER_2 = [((1,), (1,))]
_GDP_3 = [((0,), (2,)), ((1,), (1,)), ((2,), (0,)), ((0,), (1, 2)),
          ((1, 2), (0,))]
_CORNER_3 = [((2,), (2,))]

WSNE_SUPPORTS = {
    ("null/gprime", "weak"): _CORNER_2,
    ("null/gprime", "strict"): _CORNER_2,
    ("null/gdoubleprime", "weak"): _GDP_3,
    ("null/gdoubleprime", "strict"): [((1,), (1,))],
    ("capped-pennies/gprime", "weak"): _CORNER_3,
    ("capped-pennies/gprime", "strict"): _CORNER_3,
    ("lopsided/gprime", "weak"): _CORNER_3,
    ("lopsided/gprime", "strict"): _CORNER_3,
}

# decide p7-p9 (k = 2) and p10 (index set {0}) per capped game.
WSNE_ANSWERS = {
    "null/gprime": {7: "no", 8: "no", 9: "no", 10: "no"},
    "null/gdoubleprime": {7: "no", 8: "no", 9: "yes", 10: "yes"},
    "capped-pennies/gprime": {7: "no", 8: "no", 9: "no", 10: "no"},
    "capped-pennies/gdoubleprime": {7: "yes", 8: "yes", 9: "yes", 10: "yes"},
    "lopsided/gprime": {7: "no", 8: "no", 9: "no", 10: "no"},
    "lopsided/gdoubleprime": {7: "yes", 8: "yes", 9: "yes", 10: "yes"},
}

# random_planted_game raises one cell to (1, 1), so every lmm_best_welfare
# call answers yes with best welfare exactly 2, whatever the seed.
LMM_ANSWER = "yes"
LMM_WELFARE = 2
