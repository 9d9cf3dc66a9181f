"""Frozen reference data shared across the test modules.

The two operation tables, the entropy columns and the chain list were
generated by an independent oracle (native int bitwise ops plus brute
force over subsets) and are pasted here verbatim.  Tests compare the
library against these constants, never against its own output.
"""

# product table: PRODUCT[a][b], rows and columns indexed 0..7
PRODUCT = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 1, 0, 1, 0, 1],
    [0, 0, 2, 2, 0, 0, 2, 2],
    [0, 1, 2, 3, 0, 1, 2, 3],
    [0, 0, 0, 0, 4, 4, 4, 4],
    [0, 1, 0, 1, 4, 5, 4, 5],
    [0, 0, 2, 2, 4, 4, 6, 6],
    [0, 1, 2, 3, 4, 5, 6, 7],
]

# sum table: SUM[a][b]
SUM = [
    [0, 1, 2, 3, 4, 5, 6, 7],
    [1, 1, 3, 3, 5, 5, 7, 7],
    [2, 3, 2, 3, 6, 7, 6, 7],
    [3, 3, 3, 3, 7, 7, 7, 7],
    [4, 5, 6, 7, 4, 5, 6, 7],
    [5, 5, 7, 7, 5, 5, 7, 7],
    [6, 7, 6, 7, 6, 7, 6, 7],
    [7, 7, 7, 7, 7, 7, 7, 7],
]

# entropy column for each operation, indexed by element
ENTROPY_PRODUCT = [1, 2, 2, 4, 2, 4, 4, 8]
ENTROPY_SUM = [8, 4, 4, 2, 4, 2, 2, 1]

# all maximal chains of the order, found by brute force over 4-subsets
CHAINS = [
    (0, 1, 3, 7),
    (0, 1, 5, 7),
    (0, 2, 3, 7),
    (0, 2, 6, 7),
    (0, 4, 5, 7),
    (0, 4, 6, 7),
]

# modal label -> octal under the I=4, O=2, D=1 weighting
PSI = {"E": 0, "D": 1, "O": 2, "OD": 3, "I": 4, "ID": 5, "IO": 6, "IOD": 7}

# output encoding rows: input octal -> (output code, meaning string).
# Composite rows join with a space, atomic rows with '&'.
OUTPUT_ROWS = {
    7: (7, "PR' NR'"),
    3: (6, "PR' NA'"),
    6: (5, "PA' NR'"),
    5: (4, "PA' NA'"),
    2: (3, "PR'&NR'"),
    1: (2, "PR'&NA'"),
    4: (1, "PA'&NR'"),
    0: (0, "PA'&NA'"),
}

# (claim polarity, modal label) -> response
DECISION_MATRIX = {
    ("positive", "I"): "accepted",
    ("positive", "O"): "repeat",
    ("positive", "D"): "rejected",
    ("negative", "I"): "rejected",
    ("negative", "O"): "repeat",
    ("negative", "D"): "accepted",
}


# gallery file of two 12-bit templates under bands n=0.6, p=0.75,
# target_rate=1e-06, as save_gallery writes it
GALLERY_12_BITS = """\
{
  "bands": {
    "n": "0.6",
    "p": "0.75",
    "target_rate": "1e-06"
  },
  "bit_length": 12,
  "templates": [
    {
      "bits": "b2d0",
      "identity": "alice",
      "template_id": "alice_1"
    },
    {
      "bits": "69e0",
      "identity": "bob",
      "template_id": "bob_1"
    }
  ]
}
"""
