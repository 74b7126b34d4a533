"""The repository's load benchmark; see README.md in this directory."""
