"""Registry parity of the lint code table after the native range retired.

The SR060-range native verifier is gone; what stays is the guarantee that
the lint entry point itself (``repro.lint.cli``, not the top-level
``repro lint`` wrapper) lists every code the registry holds.
"""

from repro.lint.diagnostics import CODES


class TestRegistryParity:
    def test_list_codes_covers_full_registry(self, capsys):
        from repro.lint.cli import main

        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out
