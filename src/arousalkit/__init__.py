"""Toolkit for bootstrapping and evaluating an issue-tracker arousal lexicon."""
