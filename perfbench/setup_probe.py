"""Set-up probe: a fresh interpreter imports qembound from the source
directory given as the only argument and parses the scenario documents
read from standard input as a JSON list of strings.  The benchmark times
this process from start to exit as `setup_s`."""

import json
import sys

sys.path.insert(0, sys.argv[1])

from qembound import cli  # noqa: E402

for text in json.load(sys.stdin):
    cli.parse_config(text)
