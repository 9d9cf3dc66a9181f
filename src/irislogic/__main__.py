"""python -m irislogic: the irislogic command line."""
from irislogic.cli import run

run()
