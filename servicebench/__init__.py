"""Whole-request service benchmark for the Casper reproduction (see README.md)."""
