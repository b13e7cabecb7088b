"""The README's Library section runs, and the record fields its prose names exist."""

import re
from pathlib import Path

from gnqaudit.training import AuditRecord

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def library_block() -> str:
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_names_only_record_attributes():
    namespace = {}
    exec(compile(library_block(), "README.md", "exec"), namespace)
    record = namespace["record"]
    assert isinstance(record, AuditRecord)
    names = set(re.findall(r"\brecord\.([A-Za-z_]\w*)", README))
    assert {"values", "range_ok", "cumulative_gnq", "spectra"} <= names
    assert sorted(n for n in names if not hasattr(record, n)) == []
    totals, fano = namespace["totals"], namespace["fano"]
    assert totals.shape == fano.pe_lower.shape == record.cumulative_gnq.shape
