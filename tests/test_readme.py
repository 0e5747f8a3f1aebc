"""README's runnable documentation: the Library section's python block runs as written."""

import contextlib
import io
import re
from pathlib import Path

from nhosc import isospectral_report

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README.name}, Library section", "exec"), namespace)
    assert out.getvalue()
    # the example's one solve counts what the report of the same basis counts
    report = isospectral_report(namespace["params"], namespace["basis"])
    spectrum = namespace["spectrum"]
    assert (spectrum.n_real, spectrum.n_complex) == (report.spectrum.n_real, report.spectrum.n_complex)
