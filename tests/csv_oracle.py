"""The plain table writer, one repr() or str() per cell: the reference for
`data.write_csv`, which formats each distinct bit pattern of a block's
dtype group once.

It writes the header, then one CRLF row per index of the columns'
`.tolist()` values, unquoted: numbers as repr(), other cells as str().
"""


def write_rows(path, header, columns):
    cells = [repr if c.dtype.kind in "iuf" else str for c in columns]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in zip(*[map(cell, c.tolist()) for cell, c in zip(cells, columns)]):
            fh.write(",".join(row) + "\r\n")
