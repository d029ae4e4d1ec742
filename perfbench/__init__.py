"""polytrace benchmark: see README.md in this directory."""
