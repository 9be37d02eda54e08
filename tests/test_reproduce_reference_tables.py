import runpy
from pathlib import Path

from levybarrier.cases import TABLE_PRICES

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_reference_tables.py"


def test_prints_one_row_per_table_price(capsys):
    runpy.run_path(str(SCRIPT), run_name="__main__")
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    dates = [int(row[0]) for row in rows if row and row[0].isdigit()]
    assert dates == [N for table in TABLE_PRICES.values() for N in table]
